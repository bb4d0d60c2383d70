#include "apps/webserver_apps.h"

#include <gtest/gtest.h>

#include "core/approx_config.h"
#include "core/approx_job.h"
#include "hdfs/namenode.h"
#include "sim/cluster.h"
#include "workloads/webserver_log.h"

namespace approxhadoop::apps {
namespace {

std::unique_ptr<hdfs::BlockDataset>
smallLog()
{
    workloads::WebServerLogParams params;
    params.num_weeks = 20;
    params.entries_per_week = 200;
    return workloads::makeWebServerLog(params);
}

template <typename App>
mr::JobResult
runPrecise(const hdfs::BlockDataset& log, uint64_t seed)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, seed);
    core::ApproxJobRunner runner(cluster, log, nn);
    return runner.runPrecise(webServerLogConfig("app", 200),
                             App::mapperFactory(),
                             App::preciseReducerFactory());
}

TEST(WebRequestRateTest, TotalRequestsPreserved)
{
    auto log = smallLog();
    mr::JobResult result = runPrecise<WebRequestRate>(*log, 1);
    double total = 0.0;
    for (const auto& rec : result.output) {
        total += rec.value;
    }
    EXPECT_DOUBLE_EQ(total, 20.0 * 200.0);
}

TEST(AttackFrequenciesTest, OnlyAttackLinesCounted)
{
    auto log = smallLog();
    mr::JobResult result = runPrecise<AttackFrequencies>(*log, 2);
    uint64_t expected = 0;
    for (uint64_t b = 0; b < log->numBlocks(); ++b) {
        for (uint64_t i = 0; i < log->itemsInBlock(b); ++i) {
            std::string record = log->item(b, i);
            workloads::WebLogEntryView e;
            ASSERT_TRUE(workloads::parseWebLogEntry(record, e));
            if (e.attack) {
                ++expected;
            }
        }
    }
    double total = 0.0;
    for (const auto& rec : result.output) {
        total += rec.value;
        EXPECT_EQ(rec.key[0], 'c');  // clients
    }
    EXPECT_DOUBLE_EQ(total, static_cast<double>(expected));
}

TEST(TotalSizeTest, SingleKeyTotal)
{
    auto log = smallLog();
    mr::JobResult result = runPrecise<TotalSize>(*log, 3);
    ASSERT_EQ(result.output.size(), 1u);
    EXPECT_EQ(result.output[0].key, "total_bytes");
    EXPECT_GT(result.output[0].value, 0.0);
}

TEST(RequestSizeTest, AverageIsNearGeneratorMean)
{
    auto log = smallLog();
    mr::JobResult result = runPrecise<RequestSize>(*log, 4);
    ASSERT_EQ(result.output.size(), 1u);
    // Generator: exponential with mean 24000 plus 128.
    EXPECT_NEAR(result.output[0].value, 24128.0, 2500.0);
}

TEST(RequestSizeTest, ApproximateAverageHasSaneBounds)
{
    auto log = smallLog();
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 5);
    core::ApproxJobRunner runner(cluster, *log, nn);
    core::ApproxConfig approx;
    approx.sampling_ratio = 0.2;
    mr::JobResult result = runner.runAggregation(
        webServerLogConfig("size", 200), approx,
        RequestSize::mapperFactory(), RequestSize::kOp);
    ASSERT_EQ(result.output.size(), 1u);
    const mr::OutputRecord& rec = result.output[0];
    EXPECT_TRUE(rec.has_bound);
    EXPECT_GT(rec.errorBound(), 0.0);
    EXPECT_NEAR(rec.value, 24128.0, 3.0 * rec.errorBound() + 1000.0);
}

TEST(ClientsTest, PerClientCounts)
{
    auto log = smallLog();
    mr::JobResult result = runPrecise<Clients>(*log, 6);
    double total = 0.0;
    for (const auto& rec : result.output) {
        total += rec.value;
    }
    EXPECT_DOUBLE_EQ(total, 4000.0);
    EXPECT_GT(result.output.size(), 100u);
}

TEST(ClientBrowserTest, FiveBrowsers)
{
    auto log = smallLog();
    mr::JobResult result = runPrecise<ClientBrowser>(*log, 7);
    EXPECT_EQ(result.output.size(), 5u);
}

}  // namespace
}  // namespace approxhadoop::apps
