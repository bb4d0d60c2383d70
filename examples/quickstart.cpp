/**
 * @file
 * Quickstart: the ApproxWordCount program from Figure 3 of the paper.
 *
 * Counts word occurrences over a small document set three ways:
 *  1. precise (stock MapReduce),
 *  2. approximate with user-specified ratios (10% input sampling +
 *     25% map dropping), with 95% confidence intervals,
 *  3. approximate with a target error bound (5% with 95% confidence),
 *     letting ApproxHadoop pick the ratios online.
 */
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/zipf.h"
#include "core/approx_config.h"
#include "core/approx_job.h"
#include "core/sampling_reducer.h"
#include "hdfs/dataset.h"
#include "hdfs/namenode.h"
#include "mapreduce/job.h"
#include "sim/cluster.h"

using namespace approxhadoop;

namespace {

/** The word-count mapper: one document per record (paper Figure 3). */
class WordCountMapper : public core::MultiStageSamplingMapper
{
  public:
    void
    map(const std::string& record, mr::MapContext& ctx) override
    {
        std::istringstream words(record);
        std::string word;
        while (words >> word) {
            ctx.write(word, 1.0);
        }
    }
};

/** Synthetic "web pages": Zipf-distributed words, 20 per document. */
std::unique_ptr<hdfs::BlockDataset>
makeDocuments()
{
    auto zipf = std::make_shared<ZipfDistribution>(200, 1.1);
    auto generator = [zipf](uint64_t block, uint64_t index) {
        Rng rng(splitmix64(1234 ^ (block * 4099 + index)));
        std::string doc;
        for (int w = 0; w < 20; ++w) {
            if (w > 0) {
                doc += ' ';
            }
            doc += "word" + std::to_string(zipf->sample(rng));
        }
        return doc;
    };
    return std::make_unique<hdfs::GeneratedDataset>(192, 150, generator, 140);
}

mr::JobConfig
wordCountConfig(const std::string& name)
{
    mr::JobConfig config;
    config.name = name;
    config.num_reducers = 4;
    config.map_cost.t0 = 1.0;
    config.map_cost.t_read = 0.010;
    config.map_cost.t_process = 0.012;
    return config;
}

void
printTop(const char* title, const mr::JobResult& result, int top)
{
    std::printf("%s  (runtime %.1fs, energy %.1f Wh, %s)\n", title,
                result.runtime, result.energy_wh,
                result.counters.summary().c_str());
    std::vector<mr::OutputRecord> sorted = result.output;
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.value > b.value; });
    for (int i = 0; i < top && i < static_cast<int>(sorted.size()); ++i) {
        const mr::OutputRecord& r = sorted[i];
        if (r.has_bound) {
            std::printf("  %-10s %10.0f  +/- %.0f (95%% CI)\n",
                        r.key.c_str(), r.value, r.errorBound());
        } else {
            std::printf("  %-10s %10.0f\n", r.key.c_str(), r.value);
        }
    }
}

}  // namespace

int
main()
{
    auto documents = makeDocuments();

    // --- 1. Precise run ----------------------------------------------------
    sim::Cluster cluster1(sim::ClusterConfig::xeon10());
    hdfs::NameNode namenode1(cluster1.numServers(), 3, 99);
    core::ApproxJobRunner runner1(cluster1, *documents, namenode1);
    mr::JobResult precise = runner1.runPrecise(
        wordCountConfig("wordcount-precise"),
        [] { return std::make_unique<WordCountMapper>(); },
        [] {
            return std::make_unique<mr::PreciseReducer>(
                mr::PreciseReducer::Op::kSum);
        });
    printTop("PRECISE", precise, 5);

    // --- 2. User-specified ratios: 10% sampling, 25% dropping --------------
    sim::Cluster cluster2(sim::ClusterConfig::xeon10());
    hdfs::NameNode namenode2(cluster2.numServers(), 3, 99);
    core::ApproxJobRunner runner2(cluster2, *documents, namenode2);
    core::ApproxConfig ratios;
    ratios.sampling_ratio = 0.10;
    ratios.drop_ratio = 0.25;
    mr::JobResult approx = runner2.runAggregation(
        wordCountConfig("wordcount-ratios"), ratios,
        [] { return std::make_unique<WordCountMapper>(); },
        core::MultiStageSamplingReducer::Op::kCount);
    printTop("\nAPPROX (10% sampling, 25% dropping)", approx, 5);

    // --- 3. Target error bound: 5% at 95% confidence -----------------------
    sim::Cluster cluster3(sim::ClusterConfig::xeon10());
    hdfs::NameNode namenode3(cluster3.numServers(), 3, 99);
    core::ApproxJobRunner runner3(cluster3, *documents, namenode3);
    core::ApproxConfig target;
    target.target_relative_error = 0.05;
    mr::JobResult bounded = runner3.runAggregation(
        wordCountConfig("wordcount-target"), target,
        [] { return std::make_unique<WordCountMapper>(); },
        core::MultiStageSamplingReducer::Op::kCount);
    printTop("\nAPPROX (target 5% error, 95% confidence)", bounded, 5);

    std::printf("\nmax actual error vs precise: ratios=%.2f%% target=%.2f%%\n",
                100.0 * approx.maxRelativeErrorAgainst(precise),
                100.0 * bounded.maxRelativeErrorAgainst(precise));
    return 0;
}
