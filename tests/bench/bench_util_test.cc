/**
 * @file
 * bench/bench_util.h: the rep-count parsing that every committed
 * BENCH_*.json baseline depends on (a silently-misparsed
 * APPROX_BENCH_REPS would commit medians over the wrong sample count),
 * plus the median/aggregate statistics and the report JSON schema.
 */
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "bench_util.h"
#include "obs/json.h"

namespace approxhadoop::benchutil {
namespace {

TEST(ParseRepsTest, AcceptsPositiveIntegers)
{
    EXPECT_EQ(parseReps("1"), 1);
    EXPECT_EQ(parseReps("5"), 5);
    EXPECT_EQ(parseReps("20"), 20);
    EXPECT_EQ(parseReps("1000000"), 1000000);
}

TEST(ParseRepsTest, RejectsZeroAndNegatives)
{
    EXPECT_FALSE(parseReps("0").has_value());
    EXPECT_FALSE(parseReps("-1").has_value());
    EXPECT_FALSE(parseReps("-20").has_value());
}

TEST(ParseRepsTest, RejectsGarbage)
{
    EXPECT_FALSE(parseReps("").has_value());
    EXPECT_FALSE(parseReps("abc").has_value());
    EXPECT_FALSE(parseReps("3x").has_value());
    EXPECT_FALSE(parseReps("1e3").has_value());
    EXPECT_FALSE(parseReps("2.5").has_value());
    EXPECT_FALSE(parseReps("+5").has_value());
    EXPECT_FALSE(parseReps(" 5").has_value());
    EXPECT_FALSE(parseReps(nullptr).has_value());
}

TEST(ParseRepsTest, RejectsOverflowAndAbsurdCounts)
{
    EXPECT_FALSE(parseReps("99999999999999999999").has_value());
    EXPECT_FALSE(parseReps("1000001").has_value());
}

TEST(RepetitionsTest, UsesFallbackWhenUnset)
{
    unsetenv("APPROX_BENCH_REPS");
    EXPECT_EQ(repetitions(3), 3);
    EXPECT_EQ(repetitions(7), 7);
}

TEST(RepetitionsTest, EnvOverridesFallback)
{
    setenv("APPROX_BENCH_REPS", "9", 1);
    EXPECT_EQ(repetitions(3), 9);
    unsetenv("APPROX_BENCH_REPS");
}

TEST(MedianTest, OddAndEvenCounts)
{
    EXPECT_EQ(median({}), 0.0);
    EXPECT_EQ(median({4.0}), 4.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(MedianTest, RobustToOneOutlier)
{
    // The property the perf gate leans on: one slow rep on a noisy
    // runner does not move the gated statistic.
    EXPECT_EQ(median({10.0, 10.0, 10.0, 10.0, 500.0}), 10.0);
}

TEST(AggregateTest, MeanMinMax)
{
    Agg agg = aggregate({2.0, 8.0, 5.0});
    EXPECT_DOUBLE_EQ(agg.mean, 5.0);
    EXPECT_EQ(agg.min, 2.0);
    EXPECT_EQ(agg.max, 8.0);
}

TEST(BenchReportTest, EmitsSchemaVersionedParsableJson)
{
    BenchReport report("unit_test", 5);
    report.metric("widgets_per_sec", 1234.5);
    report.metric("sim_result", 42.0);
    report.metric("wall_ms", 17.25);

    auto parsed = obs::parseJson(report.toJson());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->at("schema").string, "approxhadoop-bench/1");
    EXPECT_EQ(parsed->at("bench").string, "unit_test");
    EXPECT_EQ(parsed->at("reps").number, 5.0);
    const auto& metrics = parsed->at("metrics");
    ASSERT_TRUE(metrics.isObject());
    EXPECT_EQ(metrics.at("widgets_per_sec").number, 1234.5);
    EXPECT_EQ(metrics.at("sim_result").number, 42.0);
    EXPECT_EQ(metrics.at("wall_ms").number, 17.25);
}

TEST(BenchReportTest, JsonIsByteDeterministic)
{
    BenchReport a("bench", 3);
    a.metric("sim_x", 0.1 + 0.2);
    BenchReport b("bench", 3);
    b.metric("sim_x", 0.1 + 0.2);
    EXPECT_EQ(a.toJson(), b.toJson());
}

}  // namespace
}  // namespace approxhadoop::benchutil
