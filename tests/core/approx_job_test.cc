#include "core/approx_job.h"

#include <memory>

#include <gtest/gtest.h>

#include "core/user_defined.h"
#include "hdfs/dataset.h"
#include "hdfs/namenode.h"
#include "mapreduce/reducer.h"
#include "sim/cluster.h"

namespace approxhadoop::core {
namespace {

class OneMapper : public mr::Mapper
{
  public:
    void
    map(const std::string&, mr::MapContext& ctx) override
    {
        ctx.write("k", 1.0);
    }
};

class VariantProbeMapper : public UserDefinedApproxMapper
{
  public:
    void
    mapPrecise(const std::string&, mr::MapContext& ctx) override
    {
        ctx.write("precise", 1.0);
    }

    void
    mapApprox(const std::string&, mr::MapContext& ctx) override
    {
        ctx.write("approx", 1.0);
    }
};

mr::JobConfig
fastConfig(uint32_t reducers = 2)
{
    mr::JobConfig config;
    config.num_reducers = reducers;
    config.map_cost.t0 = 1.0;
    config.map_cost.t_read = 0.005;
    config.map_cost.t_process = 0.005;
    config.map_cost.noise_sigma = 0.0;
    config.map_cost.straggler_prob = 0.0;
    config.speculation = false;
    return config;
}

hdfs::GeneratedDataset
dataset(uint64_t blocks = 32, uint64_t items = 40)
{
    return hdfs::GeneratedDataset(
        blocks, items, [](uint64_t, uint64_t) { return "x"; });
}

TEST(ApproxJobRunnerTest, PreciseRun)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 1);
    auto ds = dataset();
    ApproxJobRunner runner(cluster, ds, nn);
    mr::JobResult result = runner.runPrecise(
        fastConfig(), [] { return std::make_unique<OneMapper>(); },
        [] {
            return std::make_unique<mr::PreciseReducer>(
                mr::PreciseReducer::Op::kSum);
        });
    EXPECT_DOUBLE_EQ(result.find("k")->value, 32.0 * 40.0);
}

TEST(ApproxJobRunnerTest, AggregationWithRatiosHasBounds)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 2);
    auto ds = dataset();
    ApproxJobRunner runner(cluster, ds, nn);
    ApproxConfig approx;
    approx.sampling_ratio = 0.25;
    approx.drop_ratio = 0.25;
    mr::JobResult result = runner.runAggregation(
        fastConfig(), approx, [] { return std::make_unique<OneMapper>(); },
        MultiStageSamplingReducer::Op::kCount);
    const mr::OutputRecord* rec = result.find("k");
    ASSERT_NE(rec, nullptr);
    EXPECT_TRUE(rec->has_bound);
    // Uniform data: the estimate must be very close to 1280.
    EXPECT_NEAR(rec->value, 1280.0, 100.0);
    EXPECT_EQ(result.counters.maps_dropped, 8u);
    EXPECT_EQ(result.counters.items_processed, 24u * 10u);
}

TEST(ApproxJobRunnerTest, MultipleReducersPartitionKeys)
{
    class MultiKeyMapper : public mr::Mapper
    {
      public:
        void
        map(const std::string&, mr::MapContext& ctx) override
        {
            for (int k = 0; k < 10; ++k) {
                ctx.write("key" + std::to_string(k), 1.0);
            }
        }
    };

    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 3);
    auto ds = dataset(16, 10);
    ApproxJobRunner runner(cluster, ds, nn);
    ApproxConfig approx;
    approx.sampling_ratio = 0.5;
    mr::JobResult result = runner.runAggregation(
        fastConfig(4), approx,
        [] { return std::make_unique<MultiKeyMapper>(); },
        MultiStageSamplingReducer::Op::kCount);
    // All 10 keys survive across the 4 partitions.
    EXPECT_EQ(result.output.size(), 10u);
    for (const auto& rec : result.output) {
        EXPECT_NEAR(rec.value, 160.0, 1.0) << rec.key;
    }
}

TEST(ApproxJobRunnerTest, TargetModeReportsAchievement)
{
    // Multi-wave cluster: 16 slots for 64 maps, so the controller can
    // act after the first wave (single-wave jobs need a pilot).
    sim::ClusterConfig cc;
    cc.num_servers = 4;
    cc.map_slots_per_server = 4;
    sim::Cluster cluster(cc);
    hdfs::NameNode nn(cluster.numServers(), 3, 4);
    auto ds = dataset(64, 50);
    ApproxJobRunner runner(cluster, ds, nn);
    ApproxConfig approx;
    approx.target_relative_error = 0.10;
    mr::JobResult result = runner.runAggregation(
        fastConfig(1), approx, [] { return std::make_unique<OneMapper>(); },
        MultiStageSamplingReducer::Op::kCount);
    EXPECT_TRUE(runner.lastTargetAchieved());
    EXPECT_LT(result.counters.maps_completed, 64u);
}

TEST(ApproxJobRunnerTest, UserDefinedFractionControlsVariantMix)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 5);
    auto ds = dataset(100, 10);
    ApproxJobRunner runner(cluster, ds, nn);
    ApproxConfig approx;
    approx.user_defined_fraction = 0.5;
    mr::JobResult result = runner.runUserDefined(
        fastConfig(1), approx,
        [] { return std::make_unique<VariantProbeMapper>(); },
        [] {
            return std::make_unique<mr::PreciseReducer>(
                mr::PreciseReducer::Op::kSum);
        });
    const mr::OutputRecord* precise = result.find("precise");
    const mr::OutputRecord* approx_rec = result.find("approx");
    ASSERT_NE(precise, nullptr);
    ASSERT_NE(approx_rec, nullptr);
    // ~50/50 split of tasks, 10 records each.
    EXPECT_NEAR(precise->value + approx_rec->value, 1000.0, 1e-9);
    EXPECT_GT(approx_rec->value, 250.0);
    EXPECT_LT(approx_rec->value, 750.0);
}

TEST(ApproxJobRunnerTest, ExtremeRunFindsMinimum)
{
    class SeedMinMapper : public mr::Mapper
    {
      public:
        void
        map(const std::string&, mr::MapContext& ctx) override
        {
            Rng rng = ctx.rng();
            double m = 1e18;
            for (int i = 0; i < 25; ++i) {
                m = std::min(m, 10.0 + rng.exponential(0.5));
            }
            ctx.write("min", m);
        }
    };

    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 6);
    auto ds = dataset(120, 1);
    ApproxJobRunner runner(cluster, ds, nn);
    ApproxConfig approx;
    approx.drop_ratio = 0.5;
    mr::JobResult result = runner.runExtreme(
        fastConfig(1), approx,
        [] { return std::make_unique<SeedMinMapper>(); }, true);
    const mr::OutputRecord* rec = result.find("min");
    ASSERT_NE(rec, nullptr);
    EXPECT_GT(rec->value, 5.0);
    EXPECT_LT(rec->value, 13.0);
    EXPECT_EQ(result.counters.maps_dropped, 60u);
}

TEST(ApproxJobRunnerTest, FrameworkOverheadLengthensRuntime)
{
    auto run_with_overhead = [](double overhead) {
        sim::Cluster cluster(sim::ClusterConfig::xeon10());
        hdfs::NameNode nn(cluster.numServers(), 3, 7);
        auto ds = dataset();
        ApproxJobRunner runner(cluster, ds, nn);
        ApproxConfig approx;
        approx.sampling_ratio = 1.0;  // no approximation, just overhead
        approx.framework_overhead = overhead;
        return runner
            .runAggregation(fastConfig(1), approx,
                            [] { return std::make_unique<OneMapper>(); },
                            MultiStageSamplingReducer::Op::kCount)
            .runtime;
    };
    EXPECT_GT(run_with_overhead(0.12), run_with_overhead(0.0));
}

}  // namespace
}  // namespace approxhadoop::core
