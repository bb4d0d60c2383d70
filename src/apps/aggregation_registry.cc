#include "apps/aggregation_registry.h"

#include "apps/log_apps.h"
#include "apps/webserver_apps.h"
#include "apps/wiki_apps.h"
#include "core/approx_job.h"
#include "ft/fault_plan.h"
#include "ft/recovery_policy.h"
#include "hdfs/namenode.h"
#include "workloads/access_log.h"
#include "workloads/skew_storm.h"
#include "workloads/webserver_log.h"
#include "workloads/wiki_dump.h"

namespace approxhadoop::apps {

namespace {

using DatasetMaker = std::unique_ptr<hdfs::BlockDataset> (*)(
    uint64_t blocks, uint64_t items, uint64_t seed);

std::unique_ptr<hdfs::BlockDataset>
makeWiki(uint64_t blocks, uint64_t items, uint64_t seed)
{
    workloads::WikiDumpParams params;
    params.num_blocks = blocks;
    params.articles_per_block = items;
    params.seed = seed;
    return workloads::makeWikiDump(params);
}

std::unique_ptr<hdfs::BlockDataset>
makeLog(uint64_t blocks, uint64_t items, uint64_t seed)
{
    workloads::AccessLogParams params;
    params.num_blocks = blocks;
    params.entries_per_block = items;
    params.seed = seed;
    return workloads::makeAccessLog(params);
}

std::unique_ptr<hdfs::BlockDataset>
makeStorm(uint64_t blocks, uint64_t items, uint64_t seed)
{
    workloads::SkewStormParams params;
    params.num_blocks = blocks;
    params.items_per_block = items;
    params.seed = seed;
    return workloads::makeSkewStorm(params);
}

std::unique_ptr<hdfs::BlockDataset>
makeWeb(uint64_t blocks, uint64_t items, uint64_t seed)
{
    workloads::WebServerLogParams params;
    params.num_weeks = blocks;
    params.entries_per_week = items;
    params.seed = seed;
    return workloads::makeWebServerLog(params);
}

/** Builds the job config for a workload; wiki apps ignore the name. */
using ConfigMaker = mr::JobConfig (*)(const std::string& name,
                                      uint64_t items_per_block,
                                      uint32_t num_reducers);

template <typename App>
mr::JobConfig
wikiConfig(const std::string&, uint64_t items, uint32_t reducers)
{
    return App::jobConfig(items, reducers);
}

template <typename App>
AggregationWorkload
entry(const std::string& name, uint64_t default_blocks,
      uint64_t default_items, DatasetMaker make_dataset,
      ConfigMaker make_config)
{
    AggregationWorkload w;
    w.name = name;
    w.op = App::kOp;
    w.default_blocks = default_blocks;
    w.default_items = default_items;
    w.make_dataset = make_dataset;
    w.job_config = [name, make_config](uint64_t items, uint32_t reducers) {
        return make_config(name, items, reducers);
    };
    w.mapper_factory = [] { return App::mapperFactory(); };
    w.precise_reducer_factory = [] { return App::preciseReducerFactory(); };
    return w;
}

}  // namespace

const std::vector<AggregationWorkload>&
aggregationWorkloads()
{
    static const std::vector<AggregationWorkload> kWorkloads = {
        entry<WikiLength>("wikilength", 161, 400, makeWiki,
                          wikiConfig<WikiLength>),
        entry<WikiPageRank>("wikipagerank", 161, 400, makeWiki,
                            wikiConfig<WikiPageRank>),
        entry<ProjectPopularity>("projectpop", 744, 400, makeLog,
                                 logProcessingConfig),
        entry<PagePopularity>("pagepop", 744, 400, makeLog,
                              logProcessingConfig),
        entry<PageTraffic>("pagetraffic", 744, 400, makeLog,
                           logProcessingConfig),
        entry<WebRequestRate>("webrate", 80, 2000, makeWeb,
                              webServerLogConfig),
        entry<AttackFrequencies>("attacks", 80, 2000, makeWeb,
                                 webServerLogConfig),
        entry<TotalSize>("totalsize", 80, 2000, makeWeb, webServerLogConfig),
        entry<RequestSize>("requestsize", 80, 2000, makeWeb,
                           webServerLogConfig),
        entry<Clients>("clients", 80, 2000, makeWeb, webServerLogConfig),
        entry<ClientBrowser>("browsers", 80, 2000, makeWeb,
                             webServerLogConfig),
        // Skew-storm variant of projectpop: same record format and
        // mapper, adversarial hot-key / Zipf-shifted-block-size input.
        entry<ProjectPopularity>("skewstorm", 744, 400, makeStorm,
                                 logProcessingConfig),
    };
    return kWorkloads;
}

const AggregationWorkload*
findAggregationWorkload(const std::string& name)
{
    for (const AggregationWorkload& w : aggregationWorkloads()) {
        if (w.name == name) {
            return &w;
        }
    }
    return nullptr;
}

std::string
aggregationWorkloadNames()
{
    std::string names;
    for (const AggregationWorkload& w : aggregationWorkloads()) {
        if (!names.empty()) {
            names += ' ';
        }
        names += w.name;
    }
    return names;
}

mr::JobResult
runPreciseReference(const AggregationWorkload& workload,
                    const hdfs::BlockDataset& data, mr::JobConfig config,
                    const sim::ClusterConfig& cluster_config, uint64_t seed)
{
    config.fault_plan = ft::FaultPlan{};
    config.failure_mode = ft::FailureMode::kRetry;
    sim::Cluster cluster(cluster_config);
    hdfs::NameNode namenode(cluster.numServers(), 3, seed);
    core::ApproxJobRunner runner(cluster, data, namenode);
    return runner.runPrecise(config, workload.mapper_factory(),
                             workload.precise_reducer_factory());
}

}  // namespace approxhadoop::apps
