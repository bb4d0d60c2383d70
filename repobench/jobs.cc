#include "jobs.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "common/random.h"
#include "core/approx_config.h"
#include "core/approx_input_format.h"
#include "core/approx_job.h"
#include "core/sampling_reducer.h"
#include "core/target_error_controller.h"
#include "ft/fault_plan.h"
#include "ft/recovery_policy.h"
#include "hdfs/namenode.h"
#include "integrity/chunk_integrity.h"
#include "journal/journal.h"
#include "mapreduce/key_interner.h"
#include "sim/cluster.h"

namespace repobench {

namespace apps = approxhadoop::apps;
namespace core = approxhadoop::core;
namespace ft = approxhadoop::ft;
namespace hdfs = approxhadoop::hdfs;
namespace integrity = approxhadoop::integrity;
namespace journal = approxhadoop::journal;
namespace mr = approxhadoop::mr;
namespace sim = approxhadoop::sim;

namespace {

constexpr const char* kApp = "projectpop";
constexpr const char* kCluster = "xeon10";
/** A restart loop that keeps crashing past this many incarnations is a
 *  failed job, not a slow one. */
constexpr int kMaxIncarnations = 8;

const apps::AggregationWorkload&
projectpop()
{
    const apps::AggregationWorkload* w = apps::findAggregationWorkload(kApp);
    if (w == nullptr) {
        throw std::runtime_error("registry has no workload projectpop");
    }
    return *w;
}

mr::JobConfig
jobConfig(const WorkloadSpec& spec, const Fixture& fixture, uint64_t job_seed)
{
    mr::JobConfig config = fixture.app->job_config(fixture.items, 1);
    config.seed = job_seed;
    config.cluster_spec = kCluster;
    config.num_exec_threads = execThreads(spec);
    if (spec.kind == Kind::kJournalRecovery) {
        config.fault_plan = ft::FaultPlan::parse(kRecoveryFaultPlan);
        config.failure_mode = ft::FailureMode::kRetry;
        config.recovery.max_attempts = kRecoveryMaxAttempts;
    }
    return config;
}

core::ApproxConfig
targetConfig()
{
    core::ApproxConfig approx;
    approx.target_relative_error = kTargetError;
    approx.confidence = 0.95;
    return approx;
}

/** The journal header approxrun writes for the same precise run. */
journal::RunSpec
runSpec(const Fixture& fixture, const mr::JobConfig& config)
{
    journal::RunSpec s;
    s.app = kApp;
    s.precise = true;
    s.blocks = fixture.blocks;
    s.items = fixture.items;
    s.seed = config.seed;
    s.reducers = config.num_reducers;
    s.threads = config.num_exec_threads;
    s.cluster = kCluster;
    s.failure_mode = ft::toString(config.failure_mode);
    s.max_attempts = config.recovery.max_attempts;
    s.checkpoint_interval = config.reducer_checkpoint_interval;
    s.heartbeat_ms = config.heartbeat_interval_ms;
    s.timeout_ms = config.task_timeout_ms;
    s.fault_plan = config.fault_plan.spec();
    s.endgame_left_percent = config.endgame_left_percent;
    s.map_interval = 0;  // approxrun's default: seal at wave boundaries
    return s;
}

/** Hands out pre-created reducers one by one, as ApproxJobRunner does
 *  so the controller can watch the same objects the job consumes into. */
mr::Job::ReducerFactory
poolFactory(
    std::shared_ptr<std::vector<std::unique_ptr<core::MultiStageSamplingReducer>>>
        pool)
{
    auto next = std::make_shared<size_t>(0);
    return [pool, next]() -> std::unique_ptr<mr::Reducer> {
        if (*next >= pool->size()) {
            throw std::logic_error("reducer pool exhausted");
        }
        return std::move((*pool)[(*next)++]);
    };
}

void
putBits(std::string& out, const void* data, size_t len)
{
    out.append(static_cast<const char*>(data), len);
}

template <typename T>
void
put(std::string& out, T value)
{
    putBits(out, &value, sizeof(value));
}

void
putString(std::string& out, const std::string& s)
{
    put<uint64_t>(out, s.size());
    out += s;
}

std::string
outputBytes(const std::vector<mr::OutputRecord>& output)
{
    std::string out;
    put<uint64_t>(out, output.size());
    for (const mr::OutputRecord& r : output) {
        putString(out, r.key);
        put(out, r.value);
        put(out, r.has_bound);
        put(out, r.lower);
        put(out, r.upper);
    }
    return out;
}

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

}  // namespace

const std::vector<WorkloadSpec>&
workloadSpecs()
{
    static const std::vector<WorkloadSpec> kSpecs = {
        {"cold-precise", Kind::kColdPrecise, 0, 20},
        {"warm-precise", Kind::kWarmPrecise, 1, 20},
        {"warm-target", Kind::kWarmTarget, 1, 40},
        {"journal-recovery", Kind::kJournalRecovery, 1, 12},
    };
    return kSpecs;
}

const WorkloadSpec*
findWorkload(const std::string& name)
{
    for (const WorkloadSpec& spec : workloadSpecs()) {
        if (name == spec.name) {
            return &spec;
        }
    }
    return nullptr;
}

uint32_t
execThreads(const WorkloadSpec& spec)
{
    if (spec.threads != 0) {
        return spec.threads;
    }
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

uint64_t
mixSeed(uint64_t seed, uint64_t stream)
{
    return approxhadoop::splitmix64(seed ^
                                    approxhadoop::splitmix64(stream + 1));
}

Fixture
setUp(uint64_t data_seed)
{
    Fixture f;
    f.app = &projectpop();
    f.blocks = f.app->default_blocks;
    f.items = f.app->default_items;
    f.data_seed = data_seed;
    f.data = f.app->make_dataset(f.blocks, f.items, data_seed);
    mr::JobConfig config = f.app->job_config(f.items, 1);
    config.seed = data_seed;
    config.cluster_spec = kCluster;
    f.reference = apps::runPreciseReference(
        *f.app, *f.data, config, sim::ClusterConfig::parse(kCluster),
        data_seed);

    std::vector<const mr::OutputRecord*> rows;
    for (const mr::OutputRecord& r : f.reference.output) {
        rows.push_back(&r);
    }
    std::sort(rows.begin(), rows.end(),
              [](const mr::OutputRecord* a, const mr::OutputRecord* b) {
                  return a->value != b->value ? a->value > b->value
                                              : a->key < b->key;
              });
    for (size_t i = 0; i < rows.size() && i < kCoverageKeys; ++i) {
        f.top_keys.push_back(rows[i]->key);
    }
    return f;
}

mr::JobResult
runJob(const WorkloadSpec& spec, const Fixture& fixture, uint64_t job_seed)
{
    mr::JobConfig config = jobConfig(spec, fixture, job_seed);
    std::unique_ptr<hdfs::BlockDataset> fresh;
    const hdfs::BlockDataset* data = fixture.data.get();
    if (spec.kind == Kind::kColdPrecise) {
        fresh = fixture.app->make_dataset(fixture.blocks, fixture.items,
                                          fixture.data_seed);
        data = fresh.get();
    }

    std::unique_ptr<journal::JobJournal> jj;
    if (spec.kind == Kind::kJournalRecovery) {
        jj = journal::JobJournal::createInMemory(runSpec(fixture, config));
    }
    for (int incarnation = 0;; ++incarnation) {
        if (jj != nullptr) {
            config.driver_crash_skip = jj->resumeCount();
            config.journal_map_interval = jj->spec().map_interval;
        }
        sim::Cluster cluster(sim::ClusterConfig::parse(kCluster));
        hdfs::NameNode nn(cluster.numServers(), 3, job_seed);
        core::ApproxJobRunner runner(cluster, *data, nn);
        runner.setEpochSink(jj.get());
        try {
            if (spec.kind == Kind::kWarmTarget) {
                return runner.runAggregation(config, targetConfig(),
                                             fixture.app->mapper_factory(),
                                             fixture.app->op);
            }
            return runner.runPrecise(config, fixture.app->mapper_factory(),
                                     fixture.app->precise_reducer_factory());
        } catch (const journal::DriverKilledError&) {
            // approxrun's restart loop: reload the journal image the dead
            // incarnation left and re-execute against it.
            if (jj == nullptr || incarnation + 1 >= kMaxIncarnations) {
                throw;
            }
            std::string image = jj->bytes();
            jj.reset();
            jj = journal::JobJournal::resumeBytes(std::move(image));
        }
    }
}

mr::JobResult
runTracedJob(const WorkloadSpec& spec, const Fixture& fixture,
             uint64_t job_seed, uint32_t job_index, Tracer& tracer,
             LayerCounts& counts)
{
    tracer.setContext(job_index, 0);
    ScopedSpan root(tracer, "job");
    mr::JobConfig config = jobConfig(spec, fixture, job_seed);
    std::unique_ptr<hdfs::BlockDataset> fresh;
    const hdfs::BlockDataset* data = fixture.data.get();
    if (spec.kind == Kind::kColdPrecise) {
        fresh = fixture.app->make_dataset(fixture.blocks, fixture.items,
                                          fixture.data_seed);
        data = fresh.get();
    }
    TracedDataset traced_data(*data, tracer, counts);

    std::unique_ptr<journal::JobJournal> jj;
    if (spec.kind == Kind::kJournalRecovery) {
        ScopedSpan span(tracer, "journal.create");
        jj = journal::JobJournal::createInMemory(runSpec(fixture, config));
    }
    for (int incarnation = 0;; ++incarnation) {
        if (jj != nullptr) {
            config.driver_crash_skip = jj->resumeCount();
            config.journal_map_interval = jj->spec().map_interval;
        }
        sim::Cluster cluster(sim::ClusterConfig::parse(kCluster));
        hdfs::NameNode nn(cluster.numServers(), 3, job_seed);

        // What ApproxJobRunner::runPrecise / runAggregation install.
        mr::JobConfig job_config = config;
        mr::Job::ReducerFactory reducers;
        std::unique_ptr<mr::JobController> controller;
        const core::ApproxConfig approx = targetConfig();
        if (spec.kind == Kind::kWarmTarget) {
            job_config.framework_overhead = approx.framework_overhead;
            auto pool = std::make_shared<std::vector<
                std::unique_ptr<core::MultiStageSamplingReducer>>>();
            std::vector<core::MultiStageSamplingReducer*> raw;
            for (uint32_t r = 0; r < job_config.num_reducers; ++r) {
                pool->push_back(
                    std::make_unique<core::MultiStageSamplingReducer>(
                        fixture.app->op, approx.confidence));
                raw.push_back(pool->back().get());
            }
            reducers = poolFactory(pool);
            controller =
                std::make_unique<core::TargetErrorController>(approx, raw);
        } else {
            reducers = fixture.app->precise_reducer_factory();
        }

        mr::Job job(cluster, traced_data, nn, std::move(job_config));
        std::unique_ptr<TracedEpochSink> sink;
        if (jj != nullptr) {
            sink = std::make_unique<TracedEpochSink>(*jj, tracer, counts);
            job.setEpochSink(sink.get());
        }
        job.setMapperFactory(
            tracedMappers(fixture.app->mapper_factory(), tracer, counts));
        job.setReducerFactory(
            tracedReducers(std::move(reducers), tracer, counts));
        std::unique_ptr<TracedController> traced_controller;
        if (spec.kind == Kind::kWarmTarget) {
            job.setInputFormat(
                std::make_shared<core::ApproxTextInputFormat>());
            job.setInitialApproximateFraction(approx.user_defined_fraction);
            traced_controller = std::make_unique<TracedController>(
                *controller, tracer, counts);
            job.setController(traced_controller.get());
        }
        mr::JobResult result;
        try {
            ScopedSpan run(tracer, "mapreduce.run");
            tracer.setContext(job_index, run.id());
            result = job.run();
        } catch (const journal::DriverKilledError&) {
            if (jj == nullptr || incarnation + 1 >= kMaxIncarnations) {
                throw;
            }
            ScopedSpan span(tracer, "journal.resume");
            std::string image = jj->bytes();
            jj.reset();
            jj = journal::JobJournal::resumeBytes(std::move(image));
            continue;
        }
        if (jj != nullptr) {
            counts.journal_bytes = jj->bytes().size();
        }
        if (const auto* gen =
                dynamic_cast<const hdfs::GeneratedDataset*>(data)) {
            counts.cached_bytes = gen->cachedBytes();
        }
        return result;
    }
}

std::string
fingerprint(const mr::JobResult& result)
{
    std::string out = outputBytes(result.output);
    put(out, result.runtime);
    put(out, result.energy_wh);
    putString(out, result.counters.serialize());
    put<uint64_t>(out, result.tasks.size());
    for (const mr::MapTaskInfo& t : result.tasks) {
        put(out, t.task_id);
        put(out, t.block);
        put(out, static_cast<int>(t.state));
        put(out, t.sampling_ratio);
        put(out, t.approximate);
        put(out, t.items_total);
        put(out, t.items_processed);
        put(out, t.records_skipped);
        put(out, t.wave);
        put(out, t.server);
        put(out, t.local);
        put(out, t.speculated);
        put(out, t.failed_attempts);
        put(out, t.start_time);
        put(out, t.finish_time);
        put(out, t.startup_time);
        put(out, t.read_time);
        put(out, t.process_time);
    }
    return out;
}

std::string
checkOutput(const WorkloadSpec& spec, const Fixture& fixture,
            const mr::JobResult& result)
{
    if (result.output.empty()) {
        return "empty output";
    }
    if (spec.kind != Kind::kWarmTarget) {
        if (outputBytes(result.output) != outputBytes(fixture.reference.output)) {
            return "precise output differs from the set-up reference";
        }
        return "";
    }
    for (const mr::OutputRecord& r : result.output) {
        if (!(r.lower <= r.value && r.value <= r.upper)) {
            return "interval of key '" + r.key + "' excludes its estimate";
        }
    }
    return "";
}

Accuracy
accuracyOf(const Fixture& fixture, const mr::JobResult& result)
{
    Accuracy acc;
    for (const std::string& key : fixture.top_keys) {
        const mr::OutputRecord* exact = fixture.reference.find(key);
        const mr::OutputRecord* got = result.find(key);
        ++acc.intervals;
        if (exact == nullptr || got == nullptr) {
            continue;
        }
        double lo = got->has_bound ? got->lower : got->value;
        double hi = got->has_bound ? got->upper : got->value;
        if (lo <= exact->value && exact->value <= hi) {
            ++acc.covered;
        }
    }
    acc.rel_halfwidth =
        result.headlineErrorAgainst(fixture.reference).bound_relative_error;
    return acc;
}

Replay
replayChunks(std::vector<mr::MapOutputChunk>& chunks, uint32_t job_index,
             Tracer& tracer)
{
    Replay replay;
    tracer.setContext(job_index, 0);
    std::vector<uint64_t> delivered;
    delivered.reserve(chunks.size());
    for (const mr::MapOutputChunk& c : chunks) {
        delivered.push_back(c.checksum);
        replay.hashed_bytes += 5 * sizeof(uint64_t);
        for (const mr::KeyValue& kv : c.records) {
            replay.hashed_bytes += kv.key.size() + 4 * sizeof(double);
        }
    }
    {
        ScopedSpan span(tracer, "replay.intern");
        auto t0 = std::chrono::steady_clock::now();
        for (const mr::MapOutputChunk& c : chunks) {
            mr::KeyInterner interner;
            for (const mr::KeyValue& kv : c.records) {
                interner.intern(kv.key);
            }
            replay.distinct_keys += interner.size();
        }
        replay.intern_ms = msSince(t0);
    }
    {
        ScopedSpan span(tracer, "replay.stamp");
        auto t0 = std::chrono::steady_clock::now();
        for (mr::MapOutputChunk& c : chunks) {
            integrity::stampChunk(c);
        }
        replay.stamp_ms = msSince(t0);
    }
    for (size_t i = 0; i < chunks.size(); ++i) {
        if (chunks[i].checksum != delivered[i]) {
            replay.verified = false;
        }
    }
    {
        ScopedSpan span(tracer, "replay.verify");
        auto t0 = std::chrono::steady_clock::now();
        for (const mr::MapOutputChunk& c : chunks) {
            if (!integrity::verifyChunk(c)) {
                replay.verified = false;
            }
        }
        replay.verify_ms = msSince(t0);
    }
    return replay;
}

}  // namespace repobench
