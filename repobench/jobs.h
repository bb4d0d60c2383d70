#ifndef REPOBENCH_JOBS_H_
#define REPOBENCH_JOBS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/aggregation_registry.h"
#include "hdfs/dataset.h"
#include "layers.h"
#include "mapreduce/job.h"
#include "trace.h"

/**
 * @file
 * The benchmark's workloads: how each job is run the way the program's
 * own entry points run it (timed), how the same job is assembled from
 * public parts with every layer decorated (traced), and the checks every
 * output must pass.
 */
namespace repobench {

enum class Kind {
    kColdPrecise,
    kWarmPrecise,
    kWarmTarget,
    kJournalRecovery,
};

struct WorkloadSpec
{
    const char* name;
    Kind kind;
    /** Executor threads of the timed jobs; 0 means min(4, hardware
     *  threads). */
    uint32_t threads;
    /**
     * Jobs every run makes at least. The simulated-time and accuracy
     * metrics are taken over exactly these first jobs, so they repeat
     * bit for bit for a given seed however fast the host is.
     */
    size_t fixed_jobs;
};

/** The four workloads, in BENCHMARK.json order. */
const std::vector<WorkloadSpec>& workloadSpecs();
const WorkloadSpec* findWorkload(const std::string& name);

/** Resolves WorkloadSpec::threads. */
uint32_t execThreads(const WorkloadSpec& spec);

/** journal-recovery's fault plan: one driver crash at simulated t=60 s
 *  plus reduce crashes, shuffle corruption and map-attempt crashes. */
inline constexpr const char* kRecoveryFaultPlan =
    "dcrash=60,rcrash=0.02,corrupt=0.02,crash=0.02";

/**
 * journal-recovery's attempt limit. With the default of 4, four
 * independent 2% crash draws of one task fail the whole job, by design,
 * about once in 10^4 jobs; at 8 that never happens in practice, so every
 * job completes and has an output to check.
 */
inline constexpr uint32_t kRecoveryMaxAttempts = 8;

/** Relative error target of warm-target, at 95% confidence. */
inline constexpr double kTargetError = 0.01;

/** Number of reference keys whose intervals ci_coverage checks. */
inline constexpr size_t kCoverageKeys = 10;

/** What set-up builds once per run and every job shares. */
struct Fixture
{
    /** projectpop from the aggregation registry. */
    const approxhadoop::apps::AggregationWorkload* app = nullptr;
    uint64_t blocks = 0;
    uint64_t items = 0;
    uint64_t data_seed = 0;
    /** The dataset. Its block cache is full after set-up; the warm
     *  workloads read it, cold-precise makes a fresh one per job. */
    std::unique_ptr<approxhadoop::hdfs::BlockDataset> data;
    /** Fault-free precise output over the dataset. */
    approxhadoop::mr::JobResult reference;
    /** The kCoverageKeys largest reference keys. */
    std::vector<std::string> top_keys;
};

/**
 * Builds the dataset and the precise reference, which fills the block
 * cache. Runs on one executor thread: multi-threaded set-up times were
 * too sensitive to other load on the host to gate on.
 */
Fixture setUp(uint64_t data_seed);

/** Derives an independent 64-bit seed. */
uint64_t mixSeed(uint64_t seed, uint64_t stream);

/**
 * Runs one job as the program's own entry points do:
 * core::ApproxJobRunner, and for journal-recovery approxrun's restart
 * loop with an in-memory journal. Untraced; this is what is timed.
 * @throws whatever the job throws (a failed job)
 */
approxhadoop::mr::JobResult runJob(const WorkloadSpec& spec,
                                   const Fixture& fixture,
                                   uint64_t job_seed);

/**
 * The same job, assembled from public parts (mr::Job plus the reducers,
 * controller and input format ApproxJobRunner would install) with every
 * layer decorated, under a root span `job`.
 */
approxhadoop::mr::JobResult runTracedJob(const WorkloadSpec& spec,
                                         const Fixture& fixture,
                                         uint64_t job_seed, uint32_t job_index,
                                         Tracer& tracer, LayerCounts& counts);

/** Bit-exact serialization of a JobResult (output, runtime, energy,
 *  counters, task log); equal strings mean equal results. */
std::string fingerprint(const approxhadoop::mr::JobResult& result);

/**
 * Output checks. Precise and journal-recovery outputs must equal the
 * reference byte for byte; every approximate record's interval must
 * contain its estimate (a NaN bound fails). Returns "" when all pass, else the
 * first failure.
 */
std::string checkOutput(const WorkloadSpec& spec, const Fixture& fixture,
                        const approxhadoop::mr::JobResult& result);

/** Interval quality of one job against the reference. */
struct Accuracy
{
    /** (job, top key) intervals containing the precise answer. A
     *  precise record is the interval [value, value]. */
    uint64_t covered = 0;
    uint64_t intervals = 0;
    /** Headline-key interval half-width / estimate (0 when precise). */
    double rel_halfwidth = 0.0;
};
Accuracy accuracyOf(const Fixture& fixture,
                    const approxhadoop::mr::JobResult& result);

/** Replayed map-side interning and shuffle integrity over the chunks a
 *  traced job's reducers consumed. */
struct Replay
{
    double intern_ms = 0.0;
    double stamp_ms = 0.0;
    double verify_ms = 0.0;
    /** Sum over chunks of the distinct keys in each chunk. */
    uint64_t distinct_keys = 0;
    /** Bytes the checksum covers, per pass. */
    uint64_t hashed_bytes = 0;
    /** Every re-stamp matched the delivered checksum and every
     *  verifyChunk() returned true. */
    bool verified = true;
};

/**
 * Times KeyInterner::intern over every key, integrity::stampChunk and
 * integrity::verifyChunk over @p chunks (re-stamped in place), under
 * `replay.*` spans of job @p job_index.
 */
Replay replayChunks(std::vector<approxhadoop::mr::MapOutputChunk>& chunks,
                    uint32_t job_index, Tracer& tracer);

}  // namespace repobench

#endif  // REPOBENCH_JOBS_H_
