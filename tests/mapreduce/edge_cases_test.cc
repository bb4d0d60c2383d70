/**
 * @file
 * Edge cases and failure injection for the MapReduce runtime: degenerate
 * datasets, pathological controller behaviour, slot-accounting
 * invariants under kills and speculation.
 */
#include <memory>

#include <gtest/gtest.h>

#include "hdfs/dataset.h"
#include "hdfs/namenode.h"
#include "mapreduce/job.h"
#include "sim/cluster.h"

namespace approxhadoop::mr {
namespace {

class EchoMapper : public Mapper
{
  public:
    void
    map(const std::string& record, MapContext& ctx) override
    {
        ctx.write(record, 1.0);
    }
};

class SilentMapper : public Mapper
{
  public:
    void map(const std::string&, MapContext&) override {}
};

JobConfig
fastConfig(uint32_t reducers = 1)
{
    JobConfig config;
    config.num_reducers = reducers;
    config.map_cost.t0 = 1.0;
    config.map_cost.noise_sigma = 0.0;
    config.map_cost.straggler_prob = 0.0;
    config.speculation = false;
    return config;
}

TEST(JobEdgeCasesTest, SingleBlockSingleItem)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 1);
    hdfs::InMemoryDataset ds({{"only"}});
    Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<EchoMapper>(); });
    job.setReducerFactory([] {
        return std::make_unique<PreciseReducer>(PreciseReducer::Op::kSum);
    });
    JobResult result = job.run();
    ASSERT_EQ(result.output.size(), 1u);
    EXPECT_EQ(result.output[0].key, "only");
    EXPECT_EQ(result.counters.waves, 1);
}

TEST(JobEdgeCasesTest, MapperEmittingNothingStillCompletes)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 2);
    hdfs::InMemoryDataset ds(std::vector<std::string>(50, "x"), 10);
    Job job(cluster, ds, nn, fastConfig(3));
    job.setMapperFactory([] { return std::make_unique<SilentMapper>(); });
    job.setReducerFactory([] {
        return std::make_unique<PreciseReducer>(PreciseReducer::Op::kSum);
    });
    JobResult result = job.run();
    EXPECT_TRUE(result.output.empty());
    EXPECT_EQ(result.counters.maps_completed, 5u);
    EXPECT_EQ(result.counters.records_shuffled, 0u);
}

TEST(JobEdgeCasesTest, MoreReducersThanSlotsThrows)
{
    sim::ClusterConfig cc;
    cc.num_servers = 2;
    cc.reduce_slots_per_server = 1;
    sim::Cluster cluster(cc);
    hdfs::NameNode nn(cluster.numServers(), 2, 3);
    hdfs::InMemoryDataset ds({{"a"}});
    Job job(cluster, ds, nn, fastConfig(5));
    job.setMapperFactory([] { return std::make_unique<EchoMapper>(); });
    job.setReducerFactory([] {
        return std::make_unique<PreciseReducer>(PreciseReducer::Op::kSum);
    });
    EXPECT_THROW(job.run(), std::runtime_error);
}

class OverDropController : public JobController
{
  public:
    void
    onJobStart(JobHandle& job) override
    {
        // Asking for more drops than exist drops what's there.
        dropped = job.dropPendingMaps(1000);
    }
    uint64_t dropped = 0;
};

TEST(JobEdgeCasesTest, DropEverythingBeforeStart)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 4);
    hdfs::InMemoryDataset ds(std::vector<std::string>(60, "x"), 10);
    OverDropController controller;
    Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<EchoMapper>(); });
    job.setReducerFactory([] {
        return std::make_unique<PreciseReducer>(PreciseReducer::Op::kSum);
    });
    job.setController(&controller);
    JobResult result = job.run();
    EXPECT_EQ(controller.dropped, 6u);
    EXPECT_EQ(result.counters.maps_completed, 0u);
    EXPECT_EQ(result.counters.maps_dropped, 6u);
    // Reducers still finalize (with nothing) and the job terminates.
    EXPECT_TRUE(result.output.empty());
}

class HoldReleaseController : public JobController
{
  public:
    void
    onJobStart(JobHandle& job) override
    {
        job.holdPendingExcept(2);
    }

    void
    onMapComplete(JobHandle& job, const MapTaskInfo&) override
    {
        ++completions;
        if (completions == 2) {
            job.releaseHeld();
            job.kickScheduler();
        }
    }
    int completions = 0;
};

TEST(JobEdgeCasesTest, HoldAndReleaseRunsEverything)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 5);
    hdfs::InMemoryDataset ds(std::vector<std::string>(80, "x"), 10);
    HoldReleaseController controller;
    Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<EchoMapper>(); });
    job.setReducerFactory([] {
        return std::make_unique<PreciseReducer>(PreciseReducer::Op::kSum);
    });
    job.setController(&controller);
    JobResult result = job.run();
    EXPECT_EQ(result.counters.maps_completed, 8u);
    // Two distinct phases: the held tasks start strictly after the first
    // two complete.
    EXPECT_GE(result.counters.waves, 1);
}

class KillDuringSpeculationController : public JobController
{
  public:
    void
    onMapComplete(JobHandle& job, const MapTaskInfo&) override
    {
        if (job.completedMaps() >= 3) {
            job.dropAllRemaining();
        }
    }
};

TEST(JobEdgeCasesTest, KillWhileSpeculatingReleasesAllSlots)
{
    JobConfig config = fastConfig();
    config.speculation = true;
    config.speculation_threshold = 1.05;
    config.map_cost.straggler_prob = 0.3;
    config.map_cost.straggler_factor = 8.0;
    config.seed = 77;

    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 6);
    hdfs::InMemoryDataset ds(std::vector<std::string>(60, "x"), 1);
    KillDuringSpeculationController controller;
    Job job(cluster, ds, nn, config);
    job.setMapperFactory([] { return std::make_unique<EchoMapper>(); });
    job.setReducerFactory([] {
        return std::make_unique<PreciseReducer>(PreciseReducer::Op::kSum);
    });
    job.setController(&controller);
    JobResult result = job.run();

    // Whatever mix of kills/speculation happened, every slot must be
    // free at the end and every task in a terminal state.
    for (const sim::Server& s : cluster.servers()) {
        EXPECT_EQ(s.busyMapSlots(), 0);
        EXPECT_EQ(s.busyReduceSlots(), 0);
        EXPECT_EQ(s.state(), sim::ServerState::kActive);
    }
    EXPECT_EQ(result.counters.maps_completed + result.counters.maps_killed +
                  result.counters.maps_dropped,
              60u);
}

TEST(JobEdgeCasesTest, BigJobManyWavesCompletes)
{
    // Stress the scheduler: 2000 tasks on 8 slots = 250 waves.
    sim::ClusterConfig cc;
    cc.num_servers = 4;
    cc.map_slots_per_server = 2;
    sim::Cluster cluster(cc);
    hdfs::NameNode nn(cluster.numServers(), 2, 7);
    hdfs::GeneratedDataset ds(2000, 1,
                              [](uint64_t, uint64_t) { return "x"; });
    Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<EchoMapper>(); });
    job.setReducerFactory([] {
        return std::make_unique<PreciseReducer>(PreciseReducer::Op::kSum);
    });
    JobResult result = job.run();
    EXPECT_EQ(result.counters.maps_completed, 2000u);
    EXPECT_EQ(result.counters.waves, 250);
    ASSERT_EQ(result.output.size(), 1u);
    EXPECT_DOUBLE_EQ(result.output[0].value, 2000.0);
}

TEST(JobEdgeCasesTest, EnergyNeverNegativeAndMonotoneWithWork)
{
    auto run_blocks = [](uint64_t blocks) {
        sim::Cluster cluster(sim::ClusterConfig::xeon10());
        hdfs::NameNode nn(cluster.numServers(), 3, 8);
        hdfs::GeneratedDataset ds(blocks, 20,
                                  [](uint64_t, uint64_t) { return "x"; });
        JobConfig config;
        config.map_cost.t0 = 2.0;
        config.map_cost.noise_sigma = 0.0;
        config.speculation = false;
        Job job(cluster, ds, nn, config);
        job.setMapperFactory([] { return std::make_unique<EchoMapper>(); });
        job.setReducerFactory([] {
            return std::make_unique<PreciseReducer>(PreciseReducer::Op::kSum);
        });
        return job.run().energy_wh;
    };
    double small = run_blocks(10);
    double large = run_blocks(200);
    EXPECT_GT(small, 0.0);
    EXPECT_GT(large, small);
}

}  // namespace
}  // namespace approxhadoop::mr
