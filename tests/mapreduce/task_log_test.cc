/**
 * @file
 * Tests for the per-task execution log exposed on JobResult: scheduling
 * invariants that can only be checked from the task history (wave
 * boundaries, slot exclusivity, locality flags, timing sanity).
 */
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "hdfs/dataset.h"
#include "hdfs/namenode.h"
#include "mapreduce/job.h"
#include "sim/cluster.h"

namespace approxhadoop::mr {
namespace {

class OneMapper : public Mapper
{
  public:
    void
    map(const std::string&, MapContext& ctx) override
    {
        ctx.write("k", 1.0);
    }
};

JobResult
runSmall(uint32_t servers, int slots, uint64_t blocks)
{
    sim::ClusterConfig cc;
    cc.num_servers = servers;
    cc.map_slots_per_server = slots;
    sim::Cluster cluster(cc);
    hdfs::NameNode nn(cluster.numServers(), 2, 5);
    hdfs::GeneratedDataset ds(blocks, 10,
                              [](uint64_t, uint64_t) { return "x"; });
    JobConfig config;
    config.map_cost.t0 = 2.0;
    config.map_cost.noise_sigma = 0.0;
    config.speculation = false;
    Job job(cluster, ds, nn, config);
    job.setMapperFactory([] { return std::make_unique<OneMapper>(); });
    job.setReducerFactory([] {
        return std::make_unique<PreciseReducer>(PreciseReducer::Op::kSum);
    });
    return job.run();
}

TEST(TaskLogTest, EveryTaskHasConsistentTimings)
{
    JobResult result = runSmall(4, 2, 24);
    ASSERT_EQ(result.tasks.size(), 24u);
    for (const MapTaskInfo& t : result.tasks) {
        EXPECT_EQ(t.state, TaskState::kCompleted);
        EXPECT_GE(t.start_time, 0.0);
        EXPECT_GT(t.finish_time, t.start_time);
        EXPECT_LE(t.finish_time, result.runtime + 1e-9);
        EXPECT_NEAR(t.duration(),
                    t.startup_time + t.read_time + t.process_time, 1e-9);
        EXPECT_GE(t.wave, 0);
    }
}

TEST(TaskLogTest, WaveIndicesPartitionByStartOrder)
{
    // 24 tasks on 8 slots: waves 0..2, each started after the previous.
    JobResult result = runSmall(4, 2, 24);
    std::map<int, std::pair<double, double>> wave_span;  // first/last start
    for (const MapTaskInfo& t : result.tasks) {
        auto [it, inserted] = wave_span.try_emplace(
            t.wave, std::make_pair(t.start_time, t.start_time));
        if (!inserted) {
            it->second.first = std::min(it->second.first, t.start_time);
            it->second.second = std::max(it->second.second, t.start_time);
        }
    }
    ASSERT_EQ(wave_span.size(), 3u);
    // No wave starts before the previous wave's first start.
    EXPECT_LT(wave_span[0].second, wave_span[1].first + 1e-9);
    EXPECT_LT(wave_span[1].second, wave_span[2].first + 1e-9);
    // Exactly 8 tasks per wave.
    std::map<int, int> per_wave;
    for (const MapTaskInfo& t : result.tasks) {
        ++per_wave[t.wave];
    }
    EXPECT_EQ(per_wave[0], 8);
    EXPECT_EQ(per_wave[1], 8);
    EXPECT_EQ(per_wave[2], 8);
}

TEST(TaskLogTest, SlotsNeverOversubscribed)
{
    JobResult result = runSmall(3, 2, 30);
    // At any completed task's midpoint, at most slots-per-server tasks
    // overlap on its server.
    for (const MapTaskInfo& probe : result.tasks) {
        double mid = 0.5 * (probe.start_time + probe.finish_time);
        int overlapping = 0;
        for (const MapTaskInfo& other : result.tasks) {
            if (other.server == probe.server &&
                other.start_time <= mid && mid < other.finish_time) {
                ++overlapping;
            }
        }
        EXPECT_LE(overlapping, 2) << "server " << probe.server;
    }
}

TEST(TaskLogTest, AverageConcurrencyNearSlotCountWhenSaturated)
{
    // 64 tasks on 8 slots: the map phase saturates the slots; the reduce
    // tail dilutes slightly.
    JobResult result = runSmall(4, 2, 64);
    double concurrency = result.averageMapConcurrency();
    EXPECT_GT(concurrency, 5.0);
    EXPECT_LE(concurrency, 8.0 + 1e-9);
}

}  // namespace
}  // namespace approxhadoop::mr
