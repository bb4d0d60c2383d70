#include "workloads/webserver_log.h"

#include <map>
#include <string>

#include <gtest/gtest.h>

namespace approxhadoop::workloads {
namespace {

TEST(WebServerLogTest, RecordsParse)
{
    WebServerLogParams params;
    params.num_weeks = 4;
    params.entries_per_week = 100;
    auto ds = makeWebServerLog(params);
    for (uint64_t b = 0; b < 4; ++b) {
        for (uint64_t i = 0; i < 100; ++i) {
            std::string record = ds->item(b, i);
            WebLogEntryView entry;
            ASSERT_TRUE(parseWebLogEntry(record, entry));
            EXPECT_LT(entry.hour_of_week, 168u);
            EXPECT_FALSE(entry.client.empty());
            EXPECT_FALSE(entry.browser.empty());
            EXPECT_GT(entry.bytes, 0u);
        }
    }
}

TEST(WebServerLogTest, WeeklyIntensityShape)
{
    // Afternoon beats pre-dawn; weekdays beat weekends.
    EXPECT_GT(weeklyIntensity(14), weeklyIntensity(4));
    EXPECT_GT(weeklyIntensity(2 * 24 + 14), weeklyIntensity(6 * 24 + 14));
    // Spread is roughly the paper's ~33%.
    double lo = 1e9;
    double hi = 0.0;
    for (uint32_t h = 0; h < 168; ++h) {
        lo = std::min(lo, weeklyIntensity(h));
        hi = std::max(hi, weeklyIntensity(h));
    }
    EXPECT_GT(hi / lo, 1.2);
    EXPECT_LT(hi / lo, 1.7);
}

TEST(WebServerLogTest, HourDistributionFollowsIntensity)
{
    WebServerLogParams params;
    params.num_weeks = 30;
    params.entries_per_week = 500;
    auto ds = makeWebServerLog(params);
    std::vector<int> per_hour(168, 0);
    for (uint64_t b = 0; b < params.num_weeks; ++b) {
        for (uint64_t i = 0; i < params.entries_per_week; ++i) {
            std::string record = ds->item(b, i);
            WebLogEntryView entry;
            ASSERT_TRUE(parseWebLogEntry(record, entry));
            ++per_hour[entry.hour_of_week];
        }
    }
    // Busiest simulated hour should see measurably more traffic than the
    // quietest.
    int lo = *std::min_element(per_hour.begin(), per_hour.end());
    int hi = *std::max_element(per_hour.begin(), per_hour.end());
    EXPECT_GT(hi, lo);
    EXPECT_GT(static_cast<double>(hi) / std::max(lo, 1), 1.1);
}

TEST(WebServerLogTest, AttacksAreRareAndConcentrated)
{
    WebServerLogParams params;
    params.num_weeks = 40;
    params.entries_per_week = 1000;
    auto ds = makeWebServerLog(params);
    int attacks = 0;
    std::map<std::string, int> attackers;
    for (uint64_t b = 0; b < params.num_weeks; ++b) {
        for (uint64_t i = 0; i < params.entries_per_week; ++i) {
            std::string record = ds->item(b, i);
            WebLogEntryView entry;
            ASSERT_TRUE(parseWebLogEntry(record, entry));
            if (entry.attack) {
                ++attacks;
                ++attackers[std::string(entry.client)];
            }
        }
    }
    // ~0.4% of 40k entries.
    EXPECT_GT(attacks, 50);
    EXPECT_LT(attacks, 500);
    // Concentrated on the configured attacker pool.
    EXPECT_LE(attackers.size(), params.num_attackers);
}

TEST(WebServerLogTest, BrowserMixIsPlausible)
{
    WebServerLogParams params;
    params.num_weeks = 10;
    params.entries_per_week = 1000;
    auto ds = makeWebServerLog(params);
    std::map<std::string, int> browsers;
    for (uint64_t b = 0; b < 10; ++b) {
        for (uint64_t i = 0; i < 1000; ++i) {
            std::string record = ds->item(b, i);
            WebLogEntryView entry;
            ASSERT_TRUE(parseWebLogEntry(record, entry));
            ++browsers[std::string(entry.browser)];
        }
    }
    EXPECT_EQ(browsers.size(), 5u);
    EXPECT_GT(browsers["chrome"], browsers["bot"]);
}

}  // namespace
}  // namespace approxhadoop::workloads
