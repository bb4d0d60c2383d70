#include "workloads/access_log.h"

#include <map>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

namespace approxhadoop::workloads {
namespace {

TEST(AccessLogTest, RecordsParse)
{
    AccessLogParams params;
    params.num_blocks = 5;
    params.entries_per_block = 100;
    auto ds = makeAccessLog(params);
    for (uint64_t b = 0; b < 5; ++b) {
        for (uint64_t i = 0; i < 100; ++i) {
            std::string record = ds->item(b, i);
            AccessLogEntryView entry;
            ASSERT_TRUE(parseAccessLogEntry(record, entry));
            EXPECT_FALSE(entry.project.empty());
            EXPECT_NE(entry.page.find(entry.project), std::string_view::npos)
                << "page id embeds its project";
            EXPECT_GT(entry.bytes, 0u);
        }
    }
}

TEST(AccessLogTest, TimestampsAdvanceWithBlocks)
{
    AccessLogParams params;
    params.num_blocks = 3;
    params.entries_per_block = 50;
    auto ds = makeAccessLog(params);
    std::string early_record = ds->item(0, 0);
    std::string late_record = ds->item(2, 0);
    AccessLogEntryView early;
    AccessLogEntryView late;
    ASSERT_TRUE(parseAccessLogEntry(early_record, early));
    ASSERT_TRUE(parseAccessLogEntry(late_record, late));
    EXPECT_LT(early.timestamp, late.timestamp);
}

TEST(AccessLogTest, ProjectPopularityIsZipfLike)
{
    AccessLogParams params;
    params.num_blocks = 40;
    params.entries_per_block = 200;
    auto ds = makeAccessLog(params);
    std::map<std::string, int> counts;
    for (uint64_t b = 0; b < 40; ++b) {
        for (uint64_t i = 0; i < 200; ++i) {
            std::string record = ds->item(b, i);
            AccessLogEntryView entry;
            ASSERT_TRUE(parseAccessLogEntry(record, entry));
            ++counts[std::string(entry.project)];
        }
    }
    // proj0 must dominate (the "English project" of the paper).
    int top = counts["proj0"];
    for (const auto& [project, count] : counts) {
        EXPECT_LE(count, top) << project;
    }
    EXPECT_GT(top, 8000 / 10);  // > 10% of all accesses
    // And the tail must be long: many distinct projects.
    EXPECT_GT(counts.size(), 50u);
}

TEST(AccessLogTest, ParserRejectsGarbage)
{
    AccessLogEntryView entry;
    EXPECT_FALSE(parseAccessLogEntry("", entry));
    EXPECT_FALSE(parseAccessLogEntry("only one field", entry));
    EXPECT_FALSE(parseAccessLogEntry("1\t2", entry));
}

TEST(LogPeriodsTest, MatchesPaperTable2)
{
    const auto& periods = logPeriods();
    ASSERT_EQ(periods.size(), 10u);
    EXPECT_STREQ(periods.front().name, "1 day");
    EXPECT_EQ(periods.front().num_maps, 92u);
    EXPECT_STREQ(periods.back().name, "1 year");
    EXPECT_NEAR(periods.back().uncompressed_gb, 12800.0, 1.0);
    // Monotonically growing sizes and map counts.
    for (size_t i = 1; i < periods.size(); ++i) {
        EXPECT_GT(periods[i].num_maps, periods[i - 1].num_maps);
        EXPECT_GT(periods[i].compressed_gb, periods[i - 1].compressed_gb);
    }
}

}  // namespace
}  // namespace approxhadoop::workloads
