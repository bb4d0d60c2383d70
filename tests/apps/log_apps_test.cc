#include "apps/log_apps.h"

#include <gtest/gtest.h>

#include "core/approx_config.h"
#include "core/approx_job.h"
#include "hdfs/namenode.h"
#include "sim/cluster.h"
#include "workloads/access_log.h"

namespace approxhadoop::apps {
namespace {

std::unique_ptr<hdfs::BlockDataset>
smallLog()
{
    workloads::AccessLogParams params;
    params.num_blocks = 30;
    params.entries_per_block = 120;
    return workloads::makeAccessLog(params);
}

TEST(ProjectPopularityTest, PreciseTotalsMatchEntryCount)
{
    auto log = smallLog();
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 1);
    core::ApproxJobRunner runner(cluster, *log, nn);
    mr::JobResult result = runner.runPrecise(
        logProcessingConfig("pp", 120), ProjectPopularity::mapperFactory(),
        ProjectPopularity::preciseReducerFactory());
    double total = 0.0;
    for (const auto& rec : result.output) {
        total += rec.value;
    }
    EXPECT_DOUBLE_EQ(total, 30.0 * 120.0);
}

TEST(ProjectPopularityTest, SamplingEstimatesTopProject)
{
    auto log = smallLog();
    sim::Cluster c1(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn1(c1.numServers(), 3, 2);
    core::ApproxJobRunner r1(c1, *log, nn1);
    mr::JobResult precise = r1.runPrecise(
        logProcessingConfig("pp", 120), ProjectPopularity::mapperFactory(),
        ProjectPopularity::preciseReducerFactory());

    sim::Cluster c2(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn2(c2.numServers(), 3, 2);
    core::ApproxJobRunner r2(c2, *log, nn2);
    core::ApproxConfig approx;
    approx.sampling_ratio = 0.25;
    mr::JobResult sampled = r2.runAggregation(
        logProcessingConfig("pp", 120), approx,
        ProjectPopularity::mapperFactory(), ProjectPopularity::kOp);

    const mr::OutputRecord* p = precise.find("proj0");
    const mr::OutputRecord* s = sampled.find("proj0");
    ASSERT_NE(p, nullptr);
    ASSERT_NE(s, nullptr);
    // The CI should usually cover the truth; require at worst 2x the CI.
    EXPECT_NEAR(s->value, p->value, 2.0 * s->errorBound() + 1e-9);
}

TEST(PagePopularityTest, TopPageIsMainPageOfTopProject)
{
    auto log = smallLog();
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 3);
    core::ApproxJobRunner runner(cluster, *log, nn);
    mr::JobResult result = runner.runPrecise(
        logProcessingConfig("pagepop", 120),
        PagePopularity::mapperFactory(),
        PagePopularity::preciseReducerFactory());
    const mr::OutputRecord* top = result.find("proj0/page0");
    ASSERT_NE(top, nullptr);
    for (const auto& rec : result.output) {
        EXPECT_LE(rec.value, top->value) << rec.key;
    }
}

TEST(PageTrafficTest, SumsBytes)
{
    auto log = smallLog();
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 4);
    core::ApproxJobRunner runner(cluster, *log, nn);
    mr::JobResult result = runner.runPrecise(
        logProcessingConfig("traffic", 120), PageTraffic::mapperFactory(),
        PageTraffic::preciseReducerFactory());
    // Grand total of bytes across pages equals the dataset's total.
    double total = 0.0;
    for (const auto& rec : result.output) {
        total += rec.value;
    }
    double expected = 0.0;
    for (uint64_t b = 0; b < log->numBlocks(); ++b) {
        for (uint64_t i = 0; i < log->itemsInBlock(b); ++i) {
            std::string record = log->item(b, i);
            workloads::AccessLogEntryView e;
            ASSERT_TRUE(workloads::parseAccessLogEntry(record, e));
            expected += static_cast<double>(e.bytes);
        }
    }
    EXPECT_DOUBLE_EQ(total, expected);
}

TEST(LogRequestRateTest, HourKeysCoverWeek)
{
    auto log = smallLog();
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 5);
    core::ApproxJobRunner runner(cluster, *log, nn);
    mr::JobResult result = runner.runPrecise(
        logProcessingConfig("rate", 120), LogRequestRate::mapperFactory(),
        LogRequestRate::preciseReducerFactory());
    for (const auto& rec : result.output) {
        EXPECT_EQ(rec.key.size(), 4u);
        EXPECT_EQ(rec.key[0], 'h');
        int hour = std::stoi(rec.key.substr(1));
        EXPECT_LT(hour, 168);
    }
}

}  // namespace
}  // namespace approxhadoop::apps
