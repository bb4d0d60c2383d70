#include "mapreduce/job.h"

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "apps/aggregation_registry.h"
#include "core/approx_config.h"
#include "core/approx_job.h"
#include "hdfs/dataset.h"
#include "hdfs/namenode.h"
#include "integrity/checksum.h"
#include "obs/report.h"
#include "sim/cluster.h"

namespace approxhadoop::mr {
namespace {

/** Emits <record, 1> so tests can see exactly which items were mapped. */
class IdentityMapper : public Mapper
{
  public:
    void
    map(const std::string& record, MapContext& ctx) override
    {
        ctx.write(record, 1.0);
    }
};

/** Mapper that records which task ids executed. */
class TaskTrackingMapper : public Mapper
{
  public:
    explicit TaskTrackingMapper(std::set<uint64_t>* executed)
        : executed_(executed)
    {
    }

    void
    map(const std::string&, MapContext& ctx) override
    {
        executed_->insert(ctx.taskId());
    }

  private:
    std::set<uint64_t>* executed_;
};

JobConfig
fastConfig()
{
    JobConfig config;
    config.name = "test";
    config.num_reducers = 2;
    config.map_cost.t0 = 1.0;
    config.map_cost.t_read = 0.01;
    config.map_cost.t_process = 0.01;
    config.map_cost.noise_sigma = 0.0;
    config.map_cost.straggler_prob = 0.0;
    config.speculation = false;
    return config;
}

hdfs::InMemoryDataset
smallDataset()
{
    std::vector<std::string> records;
    for (int i = 0; i < 120; ++i) {
        records.push_back("k" + std::to_string(i % 6));
    }
    return hdfs::InMemoryDataset(records, 10);  // 12 blocks
}

TEST(JobTest, PreciseWordCountIsExact)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 1);
    auto ds = smallDataset();
    Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<IdentityMapper>(); });
    job.setReducerFactory([] {
        return std::make_unique<PreciseReducer>(PreciseReducer::Op::kSum);
    });
    JobResult result = job.run();

    EXPECT_EQ(result.counters.maps_total, 12u);
    EXPECT_EQ(result.counters.maps_completed, 12u);
    EXPECT_EQ(result.counters.items_processed, 120u);
    auto by_key = result.toMap();
    ASSERT_EQ(by_key.size(), 6u);
    for (const auto& [key, rec] : by_key) {
        EXPECT_DOUBLE_EQ(rec.value, 20.0) << key;
    }
    EXPECT_GT(result.runtime, 0.0);
    EXPECT_GT(result.energy_wh, 0.0);
}

TEST(JobTest, PlanEventsAfterTheJobEndsNeitherFireNorBillEnergy)
{
    // Fleet events timed long after the job ends are cancelled with it:
    // the job reports the runtime, energy and fleet counters of the same
    // job run without a plan.
    auto run = [](const char* plan) {
        sim::Cluster cluster(sim::ClusterConfig::xeon10());
        hdfs::NameNode nn(cluster.numServers(), 3, 1);
        auto ds = smallDataset();
        JobConfig config = fastConfig();
        config.fault_plan = ft::FaultPlan::parse(plan);
        Job job(cluster, ds, nn, config);
        job.setMapperFactory(
            [] { return std::make_unique<IdentityMapper>(); });
        job.setReducerFactory([] {
            return std::make_unique<PreciseReducer>(
                PreciseReducer::Op::kSum);
        });
        return job.run();
    };
    JobResult clean = run("");
    ASSERT_LT(clean.runtime, 1000.0);
    for (const char* plan :
         {"server=0@1000", "server=0@1000+50", "revoke=3@1000",
          "drain=2@1000", "addsrv=4atom@1000"}) {
        JobResult r = run(plan);
        EXPECT_EQ(r.energy_wh, clean.energy_wh) << plan;
        EXPECT_EQ(r.runtime, clean.runtime) << plan;
        EXPECT_EQ(r.counters.server_crashes, 0u) << plan;
        EXPECT_EQ(r.counters.servers_revoked, 0u) << plan;
        EXPECT_EQ(r.counters.servers_added, 0u) << plan;
        EXPECT_EQ(r.counters.servers_drained, 0u) << plan;
    }
}

TEST(JobTest, EveryTaskExecutesExactlyOnce)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 2);
    auto ds = smallDataset();
    std::set<uint64_t> executed;
    Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([&] {
        return std::make_unique<TaskTrackingMapper>(&executed);
    });
    job.setReducerFactory([] {
        return std::make_unique<PreciseReducer>(PreciseReducer::Op::kSum);
    });
    job.run();
    EXPECT_EQ(executed.size(), 12u);
}

TEST(JobTest, MultipleWavesWhenTasksExceedSlots)
{
    // 3 servers x 2 slots = 6 slots; 12 tasks = 2 waves.
    sim::ClusterConfig cc;
    cc.num_servers = 3;
    cc.map_slots_per_server = 2;
    cc.reduce_slots_per_server = 1;
    sim::Cluster cluster(cc);
    hdfs::NameNode nn(cluster.numServers(), 2, 3);
    auto ds = smallDataset();
    Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<IdentityMapper>(); });
    job.setReducerFactory([] {
        return std::make_unique<PreciseReducer>(PreciseReducer::Op::kSum);
    });
    JobResult result = job.run();
    EXPECT_EQ(result.counters.waves, 2);
    // Two sequential waves: runtime at least twice one map duration.
    EXPECT_GE(result.runtime, 2.0 * 1.1);
}

TEST(JobTest, RuntimeScalesWithWaves)
{
    auto run_with_slots = [](int slots_per_server) {
        sim::ClusterConfig cc;
        cc.num_servers = 2;
        cc.map_slots_per_server = slots_per_server;
        sim::Cluster cluster(cc);
        hdfs::NameNode nn(cluster.numServers(), 2, 4);
        auto ds = smallDataset();
        Job job(cluster, ds, nn, fastConfig());
        job.setMapperFactory(
            [] { return std::make_unique<IdentityMapper>(); });
        job.setReducerFactory([] {
            return std::make_unique<PreciseReducer>(PreciseReducer::Op::kSum);
        });
        return job.run().runtime;
    };
    // 6 total slots: two waves. 24 total slots: one wave. The two-wave
    // run pays at least one extra map duration (1.2 s) on top.
    EXPECT_GT(run_with_slots(3), run_with_slots(12) + 1.0);
}

TEST(JobTest, LocalityPreferred)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 5);
    auto ds = smallDataset();
    Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<IdentityMapper>(); });
    job.setReducerFactory([] {
        return std::make_unique<PreciseReducer>(PreciseReducer::Op::kSum);
    });
    JobResult result = job.run();
    // With 12 tasks, 80 slots, and replication 3 on 10 servers, most
    // tasks should run local.
    EXPECT_GT(result.counters.local_maps, result.counters.remote_maps);
}

TEST(JobTest, ResultIsIndependentOfClusterShape)
{
    auto run_on = [](uint32_t servers) {
        sim::ClusterConfig cc;
        cc.num_servers = servers;
        cc.map_slots_per_server = 2;
        sim::Cluster cluster(cc);
        hdfs::NameNode nn(cluster.numServers(), 2, 6);
        auto ds = smallDataset();
        Job job(cluster, ds, nn, fastConfig());
        job.setMapperFactory(
            [] { return std::make_unique<IdentityMapper>(); });
        job.setReducerFactory([] {
            return std::make_unique<PreciseReducer>(PreciseReducer::Op::kSum);
        });
        return job.run();
    };
    auto a = run_on(2).toMap();
    auto b = run_on(9).toMap();
    ASSERT_EQ(a.size(), b.size());
    for (const auto& [key, rec] : a) {
        EXPECT_DOUBLE_EQ(rec.value, b.at(key).value) << key;
    }
}

TEST(JobTest, RunTwiceThrows)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 7);
    auto ds = smallDataset();
    Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<IdentityMapper>(); });
    job.setReducerFactory([] {
        return std::make_unique<PreciseReducer>(PreciseReducer::Op::kSum);
    });
    job.run();
    EXPECT_THROW(job.run(), std::logic_error);
}

TEST(JobTest, MissingFactoriesThrow)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 8);
    auto ds = smallDataset();
    Job job(cluster, ds, nn, fastConfig());
    EXPECT_THROW(job.run(), std::logic_error);
}

/** Controller that drops a fixed number of pending maps at job start. */
class DropAtStartController : public JobController
{
  public:
    explicit DropAtStartController(uint64_t count) : count_(count) {}

    void
    onJobStart(JobHandle& job) override
    {
        EXPECT_EQ(job.dropPendingMaps(count_), count_);
    }

  private:
    uint64_t count_;
};

TEST(JobTest, DroppedMapsDoNotExecute)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 9);
    auto ds = smallDataset();
    std::set<uint64_t> executed;
    DropAtStartController controller(5);
    Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([&] {
        return std::make_unique<TaskTrackingMapper>(&executed);
    });
    job.setReducerFactory([] {
        return std::make_unique<PreciseReducer>(PreciseReducer::Op::kSum);
    });
    job.setController(&controller);
    JobResult result = job.run();
    EXPECT_EQ(result.counters.maps_dropped, 5u);
    EXPECT_EQ(result.counters.maps_completed, 7u);
    EXPECT_EQ(executed.size(), 7u);
}

/** Controller that kills everything after the first map completes. */
class DropAllController : public JobController
{
  public:
    void
    onMapComplete(JobHandle& job, const MapTaskInfo&) override
    {
        if (!done_) {
            done_ = true;
            job.dropAllRemaining();
        }
    }

  private:
    bool done_ = false;
};

TEST(JobTest, DropAllRemainingStillCompletesJob)
{
    // Few slots so maps are staggered and some are still pending.
    sim::ClusterConfig cc;
    cc.num_servers = 2;
    cc.map_slots_per_server = 2;
    sim::Cluster cluster(cc);
    hdfs::NameNode nn(cluster.numServers(), 2, 10);
    auto ds = smallDataset();
    DropAllController controller;
    Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<IdentityMapper>(); });
    job.setReducerFactory([] {
        return std::make_unique<PreciseReducer>(PreciseReducer::Op::kSum);
    });
    job.setController(&controller);
    JobResult result = job.run();
    EXPECT_EQ(result.counters.maps_completed, 1u);
    EXPECT_EQ(result.counters.maps_completed + result.counters.maps_killed +
                  result.counters.maps_dropped,
              12u);
    // Output only reflects the single completed map.
    double total = 0.0;
    for (const auto& rec : result.output) {
        total += rec.value;
    }
    EXPECT_DOUBLE_EQ(total, 10.0);
}

/** Controller that verifies sampling-ratio plumbing end to end. */
class RatioProbeController : public JobController
{
  public:
    void
    onJobStart(JobHandle& job) override
    {
        job.setPendingSamplingRatio(0.5);
    }

    void
    onMapComplete(JobHandle& job, const MapTaskInfo& task) override
    {
        EXPECT_DOUBLE_EQ(task.sampling_ratio, 0.5);
        EXPECT_EQ(job.mapTask(task.task_id).state, TaskState::kCompleted);
    }
};

TEST(JobTest, SamplingRatioReachesTasksButTextFormatIgnoresIt)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 11);
    auto ds = smallDataset();
    RatioProbeController controller;
    Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<IdentityMapper>(); });
    job.setReducerFactory([] {
        return std::make_unique<PreciseReducer>(PreciseReducer::Op::kSum);
    });
    job.setController(&controller);
    JobResult result = job.run();
    // TextInputFormat processes everything regardless of the ratio.
    EXPECT_EQ(result.counters.items_processed, 120u);
}

TEST(JobTest, WaveCompletionCallbackFires)
{
    class WaveCounter : public JobController
    {
      public:
        void
        onWaveComplete(JobHandle&, int wave) override
        {
            waves.push_back(wave);
        }
        std::vector<int> waves;
    };

    sim::ClusterConfig cc;
    cc.num_servers = 3;
    cc.map_slots_per_server = 2;
    sim::Cluster cluster(cc);
    hdfs::NameNode nn(cluster.numServers(), 2, 12);
    auto ds = smallDataset();
    WaveCounter controller;
    Job job(cluster, ds, nn, fastConfig());
    job.setMapperFactory([] { return std::make_unique<IdentityMapper>(); });
    job.setReducerFactory([] {
        return std::make_unique<PreciseReducer>(PreciseReducer::Op::kSum);
    });
    job.setController(&controller);
    job.run();
    ASSERT_EQ(controller.waves.size(), 2u);
    EXPECT_EQ(controller.waves[0], 0);
    EXPECT_EQ(controller.waves[1], 1);
}

TEST(JobTest, PreciseProjectPopSameKeysAndValuesAtOneAndThreeReducers)
{
    // With one reducer the task output becomes the chunk wholesale; with
    // three, keys are interned and partitioned. Each key still lands in
    // exactly one partition and is folded in the same delivery order.
    const apps::AggregationWorkload* w =
        apps::findAggregationWorkload("projectpop");
    ASSERT_NE(w, nullptr);
    auto data = w->make_dataset(24, 60, 4);
    auto run = [&](uint32_t reducers) {
        JobResult result = apps::runPreciseReference(
            *w, *data, w->job_config(60, reducers),
            sim::ClusterConfig::xeon10(), 8);
        std::map<std::string, double> values;
        for (const OutputRecord& rec : result.output) {
            EXPECT_TRUE(values.emplace(rec.key, rec.value).second)
                << "key " << rec.key << " emitted twice";
        }
        return values;
    };
    std::map<std::string, double> one = run(1);
    EXPECT_GT(one.size(), 10u);
    EXPECT_EQ(one, run(3));
}

TEST(JobTest, MomentsCombinerReportAtTwoReducersIsPinned)
{
    // Golden XXH64 of the JSON report (minus its "wall_" lines) of a
    // sampled, dropped projectpop job whose map side combines and
    // partitions on interned key ids.
    const apps::AggregationWorkload* w =
        apps::findAggregationWorkload("projectpop");
    ASSERT_NE(w, nullptr);
    auto data = w->make_dataset(24, 60, 4);
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 8);
    core::ApproxJobRunner runner(cluster, *data, nn);
    core::ApproxConfig approx;
    approx.sampling_ratio = 0.5;
    approx.drop_ratio = 0.25;
    JobConfig config = w->job_config(60, 2);
    config.seed = 8;
    JobResult result = runner.runAggregation(
        config, approx, w->mapper_factory(), w->op, /*combine=*/true);
    EXPECT_GT(result.counters.records_shuffled, 0u);
    std::istringstream json(
        obs::JobReport::build("projectpop", config, result, nullptr)
            .toJson());
    std::string stable;
    for (std::string line; std::getline(json, line);) {
        if (line.find("\"wall_") == std::string::npos) {
            stable += line;
            stable += '\n';
        }
    }
    EXPECT_EQ(integrity::hash64(stable.data(), stable.size()),
              0x6C91702523D67EA0ULL);
}

}  // namespace
}  // namespace approxhadoop::mr
