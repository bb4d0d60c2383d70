#include "apps/wiki_apps.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/approx_config.h"
#include "core/approx_job.h"
#include "hdfs/namenode.h"
#include "mapreduce/mapper.h"
#include "sim/cluster.h"
#include "workloads/wiki_dump.h"

namespace approxhadoop::apps {
namespace {

workloads::WikiDumpParams
smallDump()
{
    workloads::WikiDumpParams params;
    params.num_blocks = 24;
    params.articles_per_block = 80;
    return params;
}

TEST(WikiLengthTest, BinKeyFormat)
{
    // Bin keys are "len" plus the bin's lower edge, zero-padded to 8
    // digits so they sort numerically.
    WikiLength::Mapper mapper;
    mr::MapContext ctx(0, 4, 4, false, Rng(1));
    for (const char* record :
         {"a1\t0\t", "a2\t99\t", "a3\t100\t", "a4\t12345\t"}) {
        mapper.map(record, ctx);
    }
    ASSERT_EQ(ctx.output().size(), 4u);
    EXPECT_EQ(ctx.output()[0].key, "len00000000");
    EXPECT_EQ(ctx.output()[1].key, "len00000000");
    EXPECT_EQ(ctx.output()[2].key, "len00000100");
    EXPECT_EQ(ctx.output()[3].key, "len00012300");
}

TEST(WikiLengthTest, PreciseCountsMatchDataset)
{
    auto params = smallDump();
    auto dump = workloads::makeWikiDump(params);
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 1);
    core::ApproxJobRunner runner(cluster, *dump, nn);
    mr::JobResult result = runner.runPrecise(
        WikiLength::jobConfig(params.articles_per_block),
        WikiLength::mapperFactory(), WikiLength::preciseReducerFactory());

    // Every article lands in exactly one bin.
    double total = 0.0;
    for (const auto& rec : result.output) {
        total += rec.value;
    }
    EXPECT_DOUBLE_EQ(total, 24.0 * 80.0);
}

TEST(WikiLengthTest, ApproximateEstimateTracksPrecise)
{
    auto params = smallDump();
    auto dump = workloads::makeWikiDump(params);
    sim::Cluster c1(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn1(c1.numServers(), 3, 2);
    core::ApproxJobRunner r1(c1, *dump, nn1);
    mr::JobResult precise = r1.runPrecise(
        WikiLength::jobConfig(params.articles_per_block),
        WikiLength::mapperFactory(), WikiLength::preciseReducerFactory());

    sim::Cluster c2(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn2(c2.numServers(), 3, 2);
    core::ApproxJobRunner r2(c2, *dump, nn2);
    core::ApproxConfig approx;
    approx.sampling_ratio = 0.5;
    mr::JobResult sampled = r2.runAggregation(
        WikiLength::jobConfig(params.articles_per_block), approx,
        WikiLength::mapperFactory(), WikiLength::kOp);

    mr::JobResult::HeadlineError err = sampled.headlineErrorAgainst(precise);
    EXPECT_LT(err.actual_relative_error, 0.25);
    // Approximate run is faster.
    EXPECT_LT(sampled.runtime, precise.runtime * 1.02);
}

TEST(WikiPageRankTest, CountsInboundLinks)
{
    auto params = smallDump();
    auto dump = workloads::makeWikiDump(params);
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 3);
    core::ApproxJobRunner runner(cluster, *dump, nn);
    mr::JobResult result = runner.runPrecise(
        WikiPageRank::jobConfig(params.articles_per_block),
        WikiPageRank::mapperFactory(),
        WikiPageRank::preciseReducerFactory());

    // Zipf link targets: a0 must be the most linked-to article.
    const mr::OutputRecord* top = result.find("a0");
    ASSERT_NE(top, nullptr);
    for (const auto& rec : result.output) {
        EXPECT_LE(rec.value, top->value) << rec.key;
    }
}

TEST(WikiAppsTest, JobConfigScalesWithBlockSize)
{
    // Per-item costs scale inversely with items per block so total
    // per-block work stays calibrated.
    auto small = WikiLength::jobConfig(100);
    auto large = WikiLength::jobConfig(400);
    EXPECT_NEAR(small.map_cost.t_read * 100, large.map_cost.t_read * 400,
                1e-9);
}

}  // namespace
}  // namespace approxhadoop::apps
