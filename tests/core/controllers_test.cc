#include <memory>

#include <gtest/gtest.h>

#include "core/approx_config.h"
#include "core/approx_input_format.h"
#include "core/extreme_target_controller.h"
#include "core/ratio_controller.h"
#include "core/sampling_reducer.h"
#include "core/target_error_controller.h"
#include "hdfs/dataset.h"
#include "hdfs/namenode.h"
#include "mapreduce/job.h"
#include "sim/cluster.h"

namespace approxhadoop::core {
namespace {

class ConstantMapper : public mr::Mapper
{
  public:
    void
    map(const std::string&, mr::MapContext& ctx) override
    {
        ctx.write("k", 1.0);
    }
};

/** Mapper whose values vary, so variance (and hence CIs) are nonzero. */
class VaryingMapper : public mr::Mapper
{
  public:
    void
    map(const std::string& record, mr::MapContext& ctx) override
    {
        ctx.write("k", std::stod(record));
    }
};

mr::JobConfig
fastConfig()
{
    mr::JobConfig config;
    config.num_reducers = 1;
    config.map_cost.t0 = 1.0;
    config.map_cost.t_read = 0.01;
    config.map_cost.t_process = 0.01;
    config.map_cost.noise_sigma = 0.0;
    config.map_cost.straggler_prob = 0.0;
    config.speculation = false;
    return config;
}

hdfs::GeneratedDataset
dataset(uint64_t blocks, uint64_t items)
{
    return hdfs::GeneratedDataset(
        blocks, items, [](uint64_t, uint64_t) { return "x"; });
}

TEST(UserRatioControllerTest, DropsRequestedFraction)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 1);
    auto ds = dataset(40, 10);
    UserRatioController controller(0.25);
    mr::Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<ConstantMapper>(); });
    job.setReducerFactory([] {
        return std::make_unique<mr::PreciseReducer>(
            mr::PreciseReducer::Op::kSum);
    });
    job.setController(&controller);
    mr::JobResult result = job.run();
    EXPECT_EQ(result.counters.maps_dropped, 10u);
    EXPECT_EQ(result.counters.maps_completed, 30u);
}

TEST(UserRatioControllerTest, ZeroRatioDropsNothing)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 2);
    auto ds = dataset(20, 10);
    UserRatioController controller(0.0);
    mr::Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<ConstantMapper>(); });
    job.setReducerFactory([] {
        return std::make_unique<mr::PreciseReducer>(
            mr::PreciseReducer::Op::kSum);
    });
    job.setController(&controller);
    EXPECT_EQ(job.run().counters.maps_dropped, 0u);
}

/**
 * Runs a target-error job over a uniform dataset and returns (result,
 * controller achieved flag).
 */
mr::JobResult
runTargetJob(double target, uint64_t blocks, uint64_t items,
             bool* achieved = nullptr, bool pilot = false)
{
    sim::ClusterConfig cc;
    cc.num_servers = 4;
    cc.map_slots_per_server = 4;  // 16 slots -> several waves
    sim::Cluster cluster(cc);
    hdfs::NameNode nn(cluster.numServers(), 3, 3);
    auto ds = dataset(blocks, items);

    auto reducer = std::make_unique<MultiStageSamplingReducer>(
        MultiStageSamplingReducer::Op::kCount, 0.95);
    MultiStageSamplingReducer* raw = reducer.get();

    ApproxConfig approx;
    approx.target_relative_error = target;
    if (pilot) {
        approx.pilot.enabled = true;
        approx.pilot.maps = 8;
        approx.pilot.sampling_ratio = 0.2;
    }
    TargetErrorController controller(approx, {raw});

    mr::Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<ConstantMapper>(); });
    bool given = false;
    job.setReducerFactory([&reducer, &given]() -> std::unique_ptr<mr::Reducer> {
        EXPECT_FALSE(given);
        given = true;
        return std::move(reducer);
    });
    job.setInputFormat(std::make_shared<ApproxTextInputFormat>());
    job.setController(&controller);
    mr::JobResult result = job.run();
    if (achieved != nullptr) {
        *achieved = controller.targetAchieved();
    }
    return result;
}

TEST(TargetErrorControllerTest, LooseTargetDropsAggressively)
{
    bool achieved = false;
    mr::JobResult result = runTargetJob(0.10, 64, 50, &achieved);
    EXPECT_TRUE(achieved);
    EXPECT_GT(result.counters.maps_dropped + result.counters.maps_killed,
              0u);
    // Output must still carry a bound within the target.
    const mr::OutputRecord* rec = result.find("k");
    ASSERT_NE(rec, nullptr);
    EXPECT_LE(rec->relativeError(), 0.10 + 1e-9);
    // And the estimate should be near the truth (64 * 50 = 3200).
    EXPECT_NEAR(rec->value, 3200.0, 0.10 * 3200.0);
}

TEST(TargetErrorControllerTest, ImpossibleTargetRunsPrecise)
{
    // With genuinely varying data, an (effectively) zero error target
    // can only be met by the full census, so nothing may be dropped or
    // sampled and the output is exact.
    sim::ClusterConfig cc;
    cc.num_servers = 4;
    cc.map_slots_per_server = 4;
    sim::Cluster cluster(cc);
    hdfs::NameNode nn(cluster.numServers(), 3, 33);
    hdfs::GeneratedDataset ds(32, 40, [](uint64_t b, uint64_t i) {
        return std::to_string(1.0 + ((b * 37 + i * 11) % 17) / 7.0);
    });
    double truth = 0.0;
    for (uint64_t b = 0; b < 32; ++b) {
        for (uint64_t i = 0; i < 40; ++i) {
            truth += std::stod(ds.item(b, i));
        }
    }

    auto reducer = std::make_unique<MultiStageSamplingReducer>(
        MultiStageSamplingReducer::Op::kSum, 0.95);
    MultiStageSamplingReducer* raw = reducer.get();
    ApproxConfig approx;
    approx.target_relative_error = 1e-12;
    TargetErrorController controller(approx, {raw});

    mr::Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<VaryingMapper>(); });
    job.setReducerFactory([&reducer]() -> std::unique_ptr<mr::Reducer> {
        return std::move(reducer);
    });
    job.setInputFormat(std::make_shared<ApproxTextInputFormat>());
    job.setController(&controller);
    mr::JobResult result = job.run();

    EXPECT_EQ(result.counters.maps_completed, 32u);
    EXPECT_EQ(result.counters.items_processed, 32u * 40u);
    const mr::OutputRecord* rec = result.find("k");
    ASSERT_NE(rec, nullptr);
    EXPECT_NEAR(rec->value, truth, 1e-6);
}

TEST(TargetErrorControllerTest, EstimateAlwaysWithinBoundOfTruth)
{
    // Property over several targets: the final CI covers the true value.
    for (double target : {0.02, 0.05, 0.15}) {
        mr::JobResult result = runTargetJob(target, 48, 60);
        const mr::OutputRecord* rec = result.find("k");
        ASSERT_NE(rec, nullptr);
        double truth = 48.0 * 60.0;
        EXPECT_LE(rec->lower, truth) << "target " << target;
        EXPECT_GE(rec->upper, truth) << "target " << target;
    }
}

TEST(TargetErrorControllerTest, PilotWaveRunsAndReleases)
{
    bool achieved = false;
    mr::JobResult result = runTargetJob(0.05, 64, 50, &achieved, true);
    // All tasks reached a terminal state and the job completed.
    EXPECT_EQ(result.counters.maps_total, 64u);
    const mr::OutputRecord* rec = result.find("k");
    ASSERT_NE(rec, nullptr);
    EXPECT_NEAR(rec->value, 3200.0, 0.15 * 3200.0);
    // The pilot sampled at 20%, so the overall processed fraction must
    // be well below the full census.
    EXPECT_LT(result.counters.items_processed, 64u * 50u);
}

class MinSeedMapper : public mr::Mapper
{
  public:
    void
    map(const std::string& record, mr::MapContext& ctx) override
    {
        // Deterministic per-task minimum above a floor of 100.
        Rng rng(splitmix64(std::stoull(record)));
        double m = 1e18;
        for (int i = 0; i < 30; ++i) {
            m = std::min(m, 100.0 + rng.exponential(0.2));
        }
        ctx.write("min", m);
    }
};

TEST(ExtremeTargetControllerTest, StopsEarlyWhenCiTightens)
{
    sim::ClusterConfig cc;
    cc.num_servers = 4;
    cc.map_slots_per_server = 4;
    sim::Cluster cluster(cc);
    hdfs::NameNode nn(cluster.numServers(), 3, 4);
    auto ds = hdfs::GeneratedDataset(
        200, 1,
        [](uint64_t b, uint64_t i) { return std::to_string(b * 7 + i); });

    auto reducer = std::make_unique<ApproxMinReducer>();
    ApproxMinReducer* raw = reducer.get();
    ApproxConfig approx;
    approx.target_relative_error = 0.10;
    ExtremeTargetController controller(approx, {raw});

    mr::Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<MinSeedMapper>(); });
    job.setReducerFactory([&reducer]() -> std::unique_ptr<mr::Reducer> {
        return std::move(reducer);
    });
    job.setController(&controller);
    mr::JobResult result = job.run();

    EXPECT_TRUE(controller.targetAchieved());
    EXPECT_LT(result.counters.maps_completed, 200u);
    const mr::OutputRecord* rec = result.find("min");
    ASSERT_NE(rec, nullptr);
    EXPECT_LE(rec->relativeError(), 0.10 + 1e-9);
}

TEST(ExtremeTargetControllerTest, WaitsForMinimumMaps)
{
    // min_maps_for_extreme must gate the first decision.
    sim::ClusterConfig cc;
    cc.num_servers = 2;
    cc.map_slots_per_server = 1;  // strictly sequential
    sim::Cluster cluster(cc);
    hdfs::NameNode nn(cluster.numServers(), 2, 5);
    auto ds = hdfs::GeneratedDataset(
        30, 1,
        [](uint64_t b, uint64_t i) { return std::to_string(b * 13 + i); });

    auto reducer = std::make_unique<ApproxMinReducer>();
    ApproxMinReducer* raw = reducer.get();
    ApproxConfig approx;
    approx.target_relative_error = 0.50;  // very loose
    approx.min_maps_for_extreme = 12;
    ExtremeTargetController controller(approx, {raw});

    mr::Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<MinSeedMapper>(); });
    job.setReducerFactory([&reducer]() -> std::unique_ptr<mr::Reducer> {
        return std::move(reducer);
    });
    job.setController(&controller);
    mr::JobResult result = job.run();
    EXPECT_GE(result.counters.maps_completed, 12u);
}

}  // namespace
}  // namespace approxhadoop::core
