#include <memory>

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
    map(const std::string& record, MapContext& ctx) override
    {
        ctx.write(record, 1.0);
    }
};

JobConfig
stragglerConfig(bool speculation)
{
    JobConfig config;
    config.name = "straggler-test";
    config.num_reducers = 1;
    config.map_cost.t0 = 10.0;
    config.map_cost.noise_sigma = 0.0;
    // Every ~8th task is a 10x straggler.
    config.map_cost.straggler_prob = 0.12;
    config.map_cost.straggler_factor = 10.0;
    config.speculation = speculation;
    config.speculation_threshold = 1.3;
    config.seed = 1234;
    return config;
}

hdfs::InMemoryDataset
dataset()
{
    std::vector<std::string> records;
    for (int i = 0; i < 40; ++i) {
        records.push_back("k");
    }
    return hdfs::InMemoryDataset(records, 1);  // 40 single-item blocks
}

double
runJob(bool speculation, uint64_t* speculated = nullptr,
       JobResult* out = nullptr)
{
    sim::Cluster cluster(sim::ClusterConfig::xeon10());
    hdfs::NameNode nn(cluster.numServers(), 3, 7);
    auto ds = dataset();
    Job job(cluster, ds, nn, stragglerConfig(speculation));
    job.setMapperFactory([] { return std::make_unique<OneMapper>(); });
    job.setReducerFactory([] {
        return std::make_unique<PreciseReducer>(PreciseReducer::Op::kSum);
    });
    JobResult result = job.run();
    if (speculated != nullptr) {
        *speculated = result.counters.maps_speculated;
    }
    if (out != nullptr) {
        *out = result;
    }
    return result.runtime;
}

TEST(SpeculationTest, SpeculationLaunchesDuplicates)
{
    uint64_t speculated = 0;
    runJob(true, &speculated);
    EXPECT_GT(speculated, 0u);
}

TEST(SpeculationTest, SpeculationShortensStragglerTail)
{
    double with = runJob(true);
    double without = runJob(false);
    EXPECT_LT(with, without);
}

TEST(SpeculationTest, OutputIdenticalWithAndWithoutSpeculation)
{
    JobResult with;
    JobResult without;
    runJob(true, nullptr, &with);
    runJob(false, nullptr, &without);
    auto a = with.toMap();
    auto b = without.toMap();
    ASSERT_EQ(a.size(), b.size());
    for (const auto& [key, rec] : a) {
        EXPECT_DOUBLE_EQ(rec.value, b.at(key).value);
    }
    // Every task completes exactly once even when duplicated.
    EXPECT_EQ(with.counters.maps_completed, 40u);
}

TEST(SpeculationTest, NoSpeculationWhilePendingTasksExist)
{
    // With a single slot, there is never a free slot for duplicates, so
    // speculation cannot fire.
    sim::ClusterConfig cc;
    cc.num_servers = 1;
    cc.map_slots_per_server = 1;
    sim::Cluster cluster(cc);
    hdfs::NameNode nn(cluster.numServers(), 1, 8);
    auto ds = dataset();
    Job job(cluster, ds, nn, stragglerConfig(true));
    job.setMapperFactory([] { return std::make_unique<OneMapper>(); });
    job.setReducerFactory([] {
        return std::make_unique<PreciseReducer>(PreciseReducer::Op::kSum);
    });
    JobResult result = job.run();
    EXPECT_EQ(result.counters.maps_speculated, 0u);
}

}  // namespace
}  // namespace approxhadoop::mr
