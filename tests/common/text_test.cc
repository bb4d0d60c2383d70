/**
 * @file
 * The shared parse/format layer (src/common/text.h) every spec grammar
 * and CLI flag goes through: strict numbers, empty-field-preserving
 * split, the spec-number formatter's round trip, and the checked file
 * writer.
 */
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/text.h"

namespace approxhadoop {
namespace {

TEST(TextSplitTest, KeepsEmptyFields)
{
    using V = std::vector<std::string>;
    EXPECT_EQ(split("", ','), V{""});
    EXPECT_EQ(split("a", ','), V{"a"});
    EXPECT_EQ(split("a,b", ','), (V{"a", "b"}));
    EXPECT_EQ(split("a,,b", ','), (V{"a", "", "b"}));
    EXPECT_EQ(split("a,", ','), (V{"a", ""}));
    EXPECT_EQ(split(",a", ','), (V{"", "a"}));
    EXPECT_EQ(split("10xeon+", '+'), (V{"10xeon", ""}));
}

TEST(TextParseTest, AcceptsDecimalNumbers)
{
    EXPECT_EQ(parseDouble("0"), 0.0);
    EXPECT_EQ(parseDouble("0.25"), 0.25);
    EXPECT_EQ(parseDouble(".5"), 0.5);
    EXPECT_EQ(parseDouble("-3"), -3.0);
    EXPECT_EQ(parseDouble("1e300"), 1e300);
    EXPECT_EQ(parseDouble("1e+300"), 1e300);
    EXPECT_EQ(parseDouble("1.5e-5"), 1.5e-5);
    ASSERT_TRUE(parseDouble("-0").has_value());
    EXPECT_TRUE(std::signbit(*parseDouble("-0")));
    EXPECT_EQ(parseUint64("0"), 0u);
    EXPECT_EQ(parseUint64("42"), 42u);
    EXPECT_EQ(parseUint64("18446744073709551615"),
              std::numeric_limits<uint64_t>::max());
}

TEST(TextParseTest, RejectsEverythingElse)
{
    for (const char* bad : {"", "12x", " 5", "5 ", "+0.5", "0x1p-1",
                            "1e-400", "1e400", "nan", "inf", "-inf",
                            "1e", "--1", "1..5"}) {
        EXPECT_FALSE(parseDouble(bad).has_value()) << "'" << bad << "'";
    }
    for (const char* bad : {"", "12x", " 5", "+5", "-0", "-1", "1.0",
                            "1e3", "0x10", "18446744073709551616"}) {
        EXPECT_FALSE(parseUint64(bad).has_value()) << "'" << bad << "'";
    }
}

TEST(TextFormatTest, SpecNumbersRoundTripWithoutExponentPlus)
{
    struct Case
    {
        double value;
        const char* text;
    };
    const Case cases[] = {
        {0.0, "0"},
        {-0.0, "0"},
        {500.0, "500"},
        {-7.0, "-7"},
        {0.25, "0.25"},
        {99.5, "99.5"},
        {0.1, "0.1"},
        {1e-5, "1e-05"},
        {1e15, "1000000000000000"},
        {1.25e16, "12500000000000000"},
        {1e300, "1e300"},
        {-1e300, "-1e300"},
        {std::numeric_limits<double>::max(), "1.7976931348623157e308"},
    };
    for (const Case& c : cases) {
        std::string text = formatSpecNumber(c.value);
        EXPECT_EQ(text, c.text) << c.value;
        EXPECT_EQ(parseDouble(text), c.value) << text;
    }
}

TEST(TextWriteFileTest, WritesAndReportsFailures)
{
    std::string path = ::testing::TempDir() + "text_test_write.txt";
    ASSERT_TRUE(writeFile(path, "hello\n"));
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[16] = {};
    size_t n = std::fread(buf, 1, sizeof(buf), f);
    std::fclose(f);
    EXPECT_EQ(std::string(buf, n), "hello\n");
    std::remove(path.c_str());

    EXPECT_FALSE(writeFile("/nonexistent-dir/x.json", "x"));
    // The full device accepts the open and the buffered write; only the
    // final flush in fclose fails.
    if (std::FILE* full = std::fopen("/dev/full", "wb")) {
        std::fclose(full);
        EXPECT_FALSE(writeFile("/dev/full", "x"));
    }
}

}  // namespace
}  // namespace approxhadoop
