/**
 * @file
 * approxrun — command-line driver for the ApproxHadoop reproduction.
 *
 * Runs any of the paper's applications on the simulated cluster with the
 * approximation settings given on the command line, and prints the
 * result records (with confidence intervals), runtime, energy, and job
 * counters. Examples:
 *
 *   approxrun projectpop --sampling 0.01
 *   approxrun wikilength --drop 0.5 --sampling 0.1 --reps 3
 *   approxrun pagepop --target 0.01 --pilot 80:0.05
 *   approxrun dcplacement --target 0.05
 *   approxrun video --user-defined 0.5
 *   approxrun projectpop --precise --cluster atom60 --blocks 3552
 */
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "apps/aggregation_registry.h"
#include "apps/dc_placement_app.h"
#include "apps/frame_encoder_app.h"
#include "common/logging.h"
#include "common/text.h"
#include "core/approx_config.h"
#include "core/approx_job.h"
#include "ft/fault_plan.h"
#include "ft/recovery_policy.h"
#include "hdfs/namenode.h"
#include "journal/journal.h"
#include "obs/observability.h"
#include "obs/report.h"
#include "sim/cluster.h"
#include "workloads/dc_placement.h"

using namespace approxhadoop;

namespace {

struct Options
{
    std::string app;
    core::ApproxConfig approx;
    bool precise = false;
    bool s3 = false;
    bool verbose = false;
    uint64_t blocks = 0;  // 0 = app default
    uint64_t items = 0;
    uint32_t reducers = 1;
    uint32_t threads = 1;
    uint64_t seed = 42;
    std::string cluster = "xeon10";
    int top = 10;
    ft::FaultPlan fault_plan;
    ft::FailureMode failure_mode = ft::FailureMode::kRetry;
    double heartbeat_interval_ms = -1.0;  // <0: keep JobConfig default
    bool heartbeat_set = false;
    double task_timeout_ms = -1.0;
    bool timeout_set = false;
    uint32_t max_attempts = 0;
    bool max_attempts_set = false;
    uint64_t checkpoint_interval = 0;
    bool checkpoint_set = false;
    bool selfcheck = false;
    std::string report_json;  // --report-json FILE ("" = off)
    std::string trace_out;    // --trace-out FILE ("" = off)
    std::string journal;      // --journal FILE ("" = off)
    std::string resume;       // --resume FILE ("" = fresh run)
    uint64_t journal_interval = 0;  // --journal-interval N
};

/**
 * Observability sink shared by every job of the invocation; created in
 * main() when --report-json or --trace-out is given, and file-scope so
 * the JobFailedError path can still emit artifacts for the partial run.
 */
std::unique_ptr<obs::Observability> g_obs;

/** Exit codes: distinguishable failure classes for scripts and CI. */
enum ExitCode {
    kExitOk = 0,
    kExitWriteFailed = 1,    // --report-json / --trace-out not written
    kExitBadUsage = 2,       // unknown app/flag, malformed value, or a
                             // config rejected at job start (e.g. a fault
                             // plan naming a server outside the fleet)
    kExitJobFailed = 3,      // job aborted after retry exhaustion
    kExitSelfcheckFailed = 4 // reported CI does not cover the exact answer
};

void
usage()
{
    std::printf(
        "usage: approxrun <app> [options]\n"
        "\n"
        "apps:\n"
        "  %s\n"
        "                                 (multi-stage sampling "
        "aggregations)\n"
        "  dcplacement                    (simulated annealing, GEV)\n"
        "  video                          (user-defined approximation)\n"
        "\n"
        "options:\n"
        "  --precise             run without any approximation\n"
        "  --sampling R          input data sampling ratio in (0,1]\n"
        "  --drop R              map dropping ratio in [0,1)\n"
        "  --target X            target relative error > 0 (e.g. 0.01)\n"
        "  --confidence C        confidence level in (0,1) "
        "(default 0.95)\n"
        "  --pilot N:R           pilot wave of N maps at ratio R\n"
        "  --user-defined F      fraction of approximate map variants,\n"
        "                        in [0,1]\n"
        "  --blocks N            input blocks (= map tasks), N >= 1\n"
        "  --items N             items per block, N >= 1\n"
        "  --reducers N          reduce tasks in [1, 1024] (default 1)\n"
        "  --threads N           host threads for real map work "
        "(default 1;\n"
        "                        results are identical at any setting)\n"
        "  --cluster SPEC        xeon10 (default), atom60, or a mixed\n"
        "                        fleet in the cluster grammar, e.g.\n"
        "                        10xeon+20atom\n"
        "  --seed S              experiment seed (non-negative integer)\n"
        "  --fault-plan SPEC     inject failures; SPEC grammar:\n"
        "%s"
        "  --failure-mode M      retry | absorb | auto (default retry)\n"
        "  --max-attempts N      map attempts before the job aborts,\n"
        "                        in [1, 1000000] (default 4)\n"
        "  --checkpoint-interval N  reducer checkpoint every N chunks\n"
        "                        (0 disables; default 8)\n"
        "  --heartbeat-interval MS  task heartbeat period, simulated ms\n"
        "                        (> 0; default 1000)\n"
        "  --task-timeout MS     declare a silent task dead after MS\n"
        "                        since its last heartbeat (default 10000;\n"
        "                        <= 0: instantaneous detection)\n"
        "  --selfcheck           also run a fault-free precise reference\n"
        "                        and fail (exit 4) unless the headline\n"
        "                        key's CI covers the exact answer\n"
        "  --report-json FILE    write a machine-readable job report\n"
        "                        (JSON; schema approxhadoop-job-report/1)\n"
        "  --trace-out FILE      write a Chrome trace-event timeline\n"
        "                        (load in chrome://tracing or Perfetto)\n"
        "  --journal FILE        record a crash-consistent run journal\n"
        "                        (aggregation apps only); required for\n"
        "                        dcrash= fault plans, whose driver kills\n"
        "                        restart and resume in-process\n"
        "  --journal-interval N  also seal a journal epoch every N map\n"
        "                        completions (0 = wave boundaries only)\n"
        "  --s3                  suspend drained servers (energy mode)\n"
        "  --top K               result rows to print (default 10)\n"
        "  --verbose             framework INFO logging\n"
        "\n"
        "  --help, -h            print this help and exit 0\n"
        "  --list-workloads      print the aggregation-workload\n"
        "                        registry (name, op, default shape)\n"
        "                        and exit 0\n"
        "\n"
        "  approxrun --resume FILE [--threads N] [--top K] [--verbose]\n"
        "                        [--report-json F] [--trace-out F]\n"
        "                        resume a journaled run after a driver\n"
        "                        crash; every job-configuration knob is\n"
        "                        read back from FILE and may not be\n"
        "                        overridden\n"
        "\n"
        "exit codes: 0 ok, 1 --report-json or --trace-out file not\n"
        "written, 2 bad usage (including an unreadable, corrupt, or\n"
        "divergent journal), 3 job failed (retries exhausted), 4\n"
        "selfcheck CI coverage failure; 3 and 4 take precedence over 1\n",
        apps::aggregationWorkloadNames().c_str(),
        ft::FaultPlan::helpText().c_str());
}

/** Reports a malformed flag value with the expected grammar; always
 *  returns false so parse sites can `return badValue(...)`. */
bool
badValue(const std::string& flag, const char* grammar, const char* got)
{
    std::fprintf(stderr, "%s wants %s, got '%s'\n", flag.c_str(), grammar,
                 got == nullptr ? "" : got);
    return false;
}

/** `approxrun --list-workloads`: dump the aggregation registry —
 *  the same table the chaos harness and the service simulator draw
 *  their job mixes from — one row per workload, and exit 0. */
int
listWorkloads()
{
    std::printf("%-14s %-8s %8s %8s\n", "workload", "op", "blocks",
                "items");
    for (const apps::AggregationWorkload& w :
         apps::aggregationWorkloads()) {
        const char* op = "?";
        switch (w.op) {
            case core::MultiStageSamplingReducer::Op::kSum:
                op = "sum";
                break;
            case core::MultiStageSamplingReducer::Op::kCount:
                op = "count";
                break;
            case core::MultiStageSamplingReducer::Op::kAverage:
                op = "average";
                break;
            case core::MultiStageSamplingReducer::Op::kRatio:
                op = "ratio";
                break;
        }
        std::printf("%-14s %-8s %8llu %8llu\n", w.name.c_str(), op,
                    static_cast<unsigned long long>(w.default_blocks),
                    static_cast<unsigned long long>(w.default_items));
    }
    return 0;
}

bool
parseArgs(int argc, char** argv, Options& opt)
{
    if (argc < 2) {
        return false;
    }
    opt.app = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--precise") {
            opt.precise = true;
        } else if (arg == "--sampling") {
            const char* v = value();
            std::optional<double> r = parseDouble(v);
            if (!r || *r <= 0.0 || *r > 1.0) {
                return badValue(arg, "a ratio in (0, 1]", v);
            }
            opt.approx.sampling_ratio = *r;
        } else if (arg == "--drop") {
            const char* v = value();
            std::optional<double> r = parseDouble(v);
            if (!r || *r < 0.0 || *r >= 1.0) {
                return badValue(arg, "a ratio in [0, 1)", v);
            }
            opt.approx.drop_ratio = *r;
        } else if (arg == "--target") {
            const char* v = value();
            std::optional<double> target = parseDouble(v);
            if (!target || *target <= 0.0) {
                return badValue(arg, "a relative error > 0", v);
            }
            opt.approx.target_relative_error = *target;
        } else if (arg == "--confidence") {
            const char* v = value();
            std::optional<double> c = parseDouble(v);
            if (!c || *c <= 0.0 || *c >= 1.0) {
                return badValue(arg, "a confidence level in (0, 1)", v);
            }
            opt.approx.confidence = *c;
        } else if (arg == "--pilot") {
            const char* v = value();
            const char* colon = std::strchr(v, ':');
            if (colon == nullptr) {
                return badValue(arg, "N:R (pilot maps : sampling ratio)",
                                v);
            }
            std::optional<uint64_t> maps =
                parseUint64(std::string_view(v, colon - v));
            std::optional<double> r = parseDouble(colon + 1);
            if (!maps || *maps == 0 || !r || *r <= 0.0 || *r > 1.0) {
                return badValue(arg,
                                "N:R with N >= 1 maps and R in (0, 1]", v);
            }
            opt.approx.pilot.enabled = true;
            opt.approx.pilot.maps = *maps;
            opt.approx.pilot.sampling_ratio = *r;
        } else if (arg == "--user-defined") {
            const char* v = value();
            std::optional<double> f = parseDouble(v);
            if (!f || *f < 0.0 || *f > 1.0) {
                return badValue(arg, "a fraction in [0, 1]", v);
            }
            opt.approx.user_defined_fraction = *f;
        } else if (arg == "--blocks") {
            const char* v = value();
            std::optional<uint64_t> n = parseUint64(v);
            if (!n || *n == 0) {
                return badValue(arg, "an integer >= 1", v);
            }
            opt.blocks = *n;
        } else if (arg == "--items") {
            const char* v = value();
            std::optional<uint64_t> n = parseUint64(v);
            if (!n || *n == 0) {
                return badValue(arg, "an integer >= 1", v);
            }
            opt.items = *n;
        } else if (arg == "--reducers") {
            const char* v = value();
            std::optional<uint64_t> n = parseUint64(v);
            if (!n || *n < 1 || *n > 1024) {
                return badValue(arg, "an integer in [1, 1024]", v);
            }
            opt.reducers = static_cast<uint32_t>(*n);
        } else if (arg == "--threads") {
            const char* v = value();
            std::optional<uint64_t> n = parseUint64(v);
            if (!n || *n < 1 || *n > 1024) {
                return badValue(arg, "an integer in [1, 1024]", v);
            }
            opt.threads = static_cast<uint32_t>(*n);
        } else if (arg == "--cluster") {
            opt.cluster = value();
            try {
                (void)sim::ClusterConfig::parse(opt.cluster);
            } catch (const std::exception& e) {
                std::fprintf(stderr, "--cluster: %s\n", e.what());
                return false;
            }
        } else if (arg == "--seed") {
            const char* v = value();
            std::optional<uint64_t> seed = parseUint64(v);
            if (!seed) {
                return badValue(arg, "a non-negative integer", v);
            }
            opt.seed = *seed;
        } else if (arg == "--fault-plan") {
            try {
                opt.fault_plan = ft::FaultPlan::parse(value());
            } catch (const std::exception& e) {
                std::fprintf(stderr, "--fault-plan: %s\n%s", e.what(),
                             ft::FaultPlan::helpText().c_str());
                return false;
            }
        } else if (arg == "--failure-mode") {
            try {
                opt.failure_mode = ft::parseFailureMode(value());
            } catch (const std::exception& e) {
                std::fprintf(stderr, "--failure-mode: %s\n", e.what());
                return false;
            }
        } else if (arg == "--max-attempts") {
            const char* v = value();
            std::optional<uint64_t> n = parseUint64(v);
            if (!n || *n < 1 || *n > 1000000) {
                return badValue(arg, "an integer in [1, 1000000]", v);
            }
            opt.max_attempts = static_cast<uint32_t>(*n);
            opt.max_attempts_set = true;
        } else if (arg == "--checkpoint-interval") {
            const char* v = value();
            std::optional<uint64_t> n = parseUint64(v);
            if (!n) {
                return badValue(arg, "a non-negative integer", v);
            }
            opt.checkpoint_interval = *n;
            opt.checkpoint_set = true;
        } else if (arg == "--heartbeat-interval") {
            const char* v = value();
            std::optional<double> ms = parseDouble(v);
            if (!ms || *ms <= 0.0) {
                return badValue(arg, "a period in ms > 0", v);
            }
            opt.heartbeat_interval_ms = *ms;
            opt.heartbeat_set = true;
        } else if (arg == "--task-timeout") {
            const char* v = value();
            std::optional<double> ms = parseDouble(v);
            if (!ms) {
                return badValue(arg, "a timeout in ms", v);
            }
            opt.task_timeout_ms = *ms;
            opt.timeout_set = true;
        } else if (arg == "--report-json") {
            opt.report_json = value();
            if (opt.report_json.empty()) {
                return badValue(arg, "a file path", "");
            }
        } else if (arg == "--trace-out") {
            opt.trace_out = value();
            if (opt.trace_out.empty()) {
                return badValue(arg, "a file path", "");
            }
        } else if (arg == "--journal") {
            opt.journal = value();
            if (opt.journal.empty()) {
                return badValue(arg, "a file path", "");
            }
        } else if (arg == "--journal-interval") {
            const char* v = value();
            std::optional<uint64_t> n = parseUint64(v);
            if (!n) {
                return badValue(arg, "a non-negative integer", v);
            }
            opt.journal_interval = *n;
        } else if (arg == "--selfcheck") {
            opt.selfcheck = true;
        } else if (arg == "--s3") {
            opt.s3 = true;
        } else if (arg == "--top") {
            const char* v = value();
            std::optional<uint64_t> top = parseUint64(v);
            if (!top || *top > 1000000) {
                return badValue(arg, "a non-negative integer", v);
            }
            opt.top = static_cast<int>(*top);
        } else if (arg == "--verbose") {
            opt.verbose = true;
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return false;
        }
    }
    return true;
}

void
printResult(const Options& opt, const mr::JobResult& result)
{
    std::vector<mr::OutputRecord> rows = result.output;
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        return a.value > b.value;
    });
    std::printf("%-24s %16s %16s\n", "key", "value", "95% CI");
    int printed = 0;
    for (const auto& r : rows) {
        if (printed++ >= opt.top) {
            break;
        }
        if (r.has_bound && std::isfinite(r.errorBound())) {
            std::printf("%-24s %16.2f %15.2f\n", r.key.c_str(), r.value,
                        r.errorBound());
        } else {
            std::printf("%-24s %16.2f %16s\n", r.key.c_str(), r.value,
                        r.has_bound ? "unbounded" : "-");
        }
    }
    if (rows.size() > static_cast<size_t>(opt.top)) {
        std::printf("... (%zu keys total)\n", rows.size());
    }
    std::printf("\nruntime %.1fs | energy %.2f Wh | %s\n", result.runtime,
                result.energy_wh, result.counters.summary().c_str());
}

void
applyCommonConfig(const Options& opt, mr::JobConfig& config)
{
    config.seed = opt.seed;
    config.cluster_spec = opt.cluster;
    config.s3_when_drained = opt.s3;
    config.num_exec_threads = opt.threads;
    config.fault_plan = opt.fault_plan;
    config.failure_mode = opt.failure_mode;
    if (opt.heartbeat_set) {
        config.heartbeat_interval_ms = opt.heartbeat_interval_ms;
    }
    if (opt.timeout_set) {
        config.task_timeout_ms = opt.task_timeout_ms;
    }
    if (opt.max_attempts_set) {
        config.recovery.max_attempts = opt.max_attempts;
    }
    if (opt.checkpoint_set) {
        config.reducer_checkpoint_interval = opt.checkpoint_interval;
    }
}

sim::ClusterConfig
clusterConfigFor(const Options& opt)
{
    return sim::ClusterConfig::parse(opt.cluster);
}

/**
 * Journal header for this invocation: everything `approxrun --resume`
 * needs to re-execute the run bit-identically. @p blocks / @p items are
 * the *resolved* input shape (workload defaults applied), so the resumed
 * run never re-consults defaults that may have changed.
 */
journal::RunSpec
makeRunSpec(const Options& opt, uint64_t blocks, uint64_t items,
            const mr::JobConfig& config)
{
    journal::RunSpec s;
    s.app = opt.app;
    s.precise = opt.precise;
    s.blocks = blocks;
    s.items = items;
    s.seed = opt.seed;
    s.reducers = opt.reducers;
    s.threads = opt.threads;
    s.cluster = opt.cluster;
    s.sampling = opt.approx.sampling_ratio;
    s.drop = opt.approx.drop_ratio;
    s.has_target = opt.approx.target_relative_error.has_value();
    s.target = opt.approx.target_relative_error.value_or(0.0);
    s.confidence = opt.approx.confidence;
    s.pilot_maps = opt.approx.pilot.enabled ? opt.approx.pilot.maps : 0;
    s.pilot_ratio = opt.approx.pilot.sampling_ratio;
    s.s3 = opt.s3;
    s.failure_mode = ft::toString(opt.failure_mode);
    s.max_attempts = config.recovery.max_attempts;
    s.checkpoint_interval = config.reducer_checkpoint_interval;
    s.heartbeat_ms = config.heartbeat_interval_ms;
    s.timeout_ms = config.task_timeout_ms;
    s.fault_plan = opt.fault_plan.spec();
    s.endgame_left_percent = config.endgame_left_percent;
    s.map_interval = opt.journal_interval;
    return s;
}

/** Inverse of makeRunSpec: reconstructs the full CLI configuration of
 *  the journaled run. @throws std::invalid_argument on a header naming
 *  an unknown failure mode or fault-plan key. */
Options
optionsFromSpec(const journal::RunSpec& spec)
{
    Options opt;
    opt.app = spec.app;
    opt.precise = spec.precise;
    opt.blocks = spec.blocks;
    opt.items = spec.items;
    opt.seed = spec.seed;
    opt.reducers = spec.reducers;
    opt.threads = spec.threads;
    opt.cluster = spec.cluster;
    opt.approx.sampling_ratio = spec.sampling;
    opt.approx.drop_ratio = spec.drop;
    if (spec.has_target) {
        opt.approx.target_relative_error = spec.target;
    }
    opt.approx.confidence = spec.confidence;
    if (spec.pilot_maps > 0) {
        opt.approx.pilot.enabled = true;
        opt.approx.pilot.maps = spec.pilot_maps;
        opt.approx.pilot.sampling_ratio = spec.pilot_ratio;
    }
    opt.s3 = spec.s3;
    opt.failure_mode = ft::parseFailureMode(spec.failure_mode);
    opt.max_attempts = spec.max_attempts;
    opt.max_attempts_set = true;
    opt.checkpoint_interval = spec.checkpoint_interval;
    opt.checkpoint_set = true;
    opt.heartbeat_interval_ms = spec.heartbeat_ms;
    opt.heartbeat_set = true;
    opt.task_timeout_ms = spec.timeout_ms;
    opt.timeout_set = true;
    if (!spec.fault_plan.empty()) {
        opt.fault_plan = ft::FaultPlan::parse(spec.fault_plan);
    }
    opt.journal_interval = spec.map_interval;
    return opt;
}

/** Writes --report-json and --trace-out artifacts (whichever are set);
 *  returns kExitWriteFailed when either is not fully written. */
int
emitObsArtifacts(const Options& opt, const obs::JobReport& report)
{
    int code = kExitOk;
    auto write = [&code](const std::string& path, const std::string& text) {
        if (!writeFile(path, text)) {
            std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                         std::strerror(errno));
            code = kExitWriteFailed;
        }
    };
    if (!opt.report_json.empty()) {
        write(opt.report_json, report.toJson());
    }
    if (!opt.trace_out.empty() && g_obs != nullptr) {
        write(opt.trace_out, g_obs->trace.toChromeJson());
    }
    return code;
}

/**
 * Validates the approximate result against a fault-free precise run of
 * the same job: the headline key (largest predicted absolute error, the
 * key the paper reports) must have a confidence interval that covers the
 * exact answer. CI uses this to assert end-to-end statistical soundness
 * under fault injection.
 */
int
selfcheckAgainst(const mr::JobResult& approx, const mr::JobResult& precise)
{
    const mr::OutputRecord* worst = nullptr;
    for (const mr::OutputRecord& r : approx.output) {
        if (!r.has_bound || !std::isfinite(r.errorBound())) {
            continue;
        }
        if (worst == nullptr || r.errorBound() > worst->errorBound()) {
            worst = &r;
        }
    }
    if (worst == nullptr) {
        std::fprintf(stderr,
                     "selfcheck: no key carries a finite error bound\n");
        return kExitSelfcheckFailed;
    }
    const mr::OutputRecord* exact = precise.find(worst->key);
    if (exact == nullptr) {
        std::fprintf(stderr,
                     "selfcheck: headline key '%s' missing from the "
                     "precise reference\n",
                     worst->key.c_str());
        return kExitSelfcheckFailed;
    }
    double deviation = std::fabs(worst->value - exact->value);
    if (deviation > worst->errorBound()) {
        std::fprintf(stderr,
                     "selfcheck FAILED: key '%s' estimate %.4f +/- %.4f "
                     "does not cover exact %.4f\n",
                     worst->key.c_str(), worst->value, worst->errorBound(),
                     exact->value);
        return kExitSelfcheckFailed;
    }
    std::printf("selfcheck OK: key '%s' estimate %.4f +/- %.4f covers "
                "exact %.4f\n",
                worst->key.c_str(), worst->value, worst->errorBound(),
                exact->value);
    return kExitOk;
}

/**
 * Runs one registry aggregation workload. All eleven aggregation apps
 * dispatch through the registry (src/apps/aggregation_registry.h), the
 * same table the chaos harness fuzzes, so the CLI and the fuzzer can
 * never disagree about what a workload means.
 */
int
runAggregationWorkload(const Options& opt,
                       const apps::AggregationWorkload& workload)
{
    uint64_t blocks = opt.blocks ? opt.blocks : workload.default_blocks;
    uint64_t items = opt.items ? opt.items : workload.default_items;

    // Crash-consistent journaling (src/journal/): record mode seals the
    // run spec up front; resume mode reloads the sealed prefix and
    // verifies the re-executed run against it epoch by epoch. A dcrash=
    // fault unwinds the attempt with DriverKilledError; the loop below
    // then resumes from the journal exactly like a freshly launched
    // `approxrun --resume FILE` after a real process kill.
    std::string journal_path =
        !opt.resume.empty() ? opt.resume : opt.journal;
    std::unique_ptr<journal::JobJournal> jj;
    if (!opt.resume.empty()) {
        jj = journal::JobJournal::resumeFile(journal_path);
    } else if (!opt.journal.empty()) {
        mr::JobConfig probe = workload.job_config(items, opt.reducers);
        applyCommonConfig(opt, probe);
        jj = journal::JobJournal::create(
            journal_path, makeRunSpec(opt, blocks, items, probe));
    }

    for (;;) {
        std::unique_ptr<hdfs::BlockDataset> data =
            workload.make_dataset(blocks, items, opt.seed);
        mr::JobConfig config = workload.job_config(items, opt.reducers);
        applyCommonConfig(opt, config);
        if (jj != nullptr) {
            config.driver_crash_skip = jj->resumeCount();
            config.journal_map_interval = jj->spec().map_interval;
        }
        sim::Cluster cluster(clusterConfigFor(opt));
        hdfs::NameNode nn(cluster.numServers(), 3, opt.seed);
        core::ApproxJobRunner runner(cluster, *data, nn);
        runner.setObservability(g_obs.get());
        runner.setEpochSink(jj.get());
        mr::JobResult result;
        try {
            result = opt.precise
                         ? runner.runPrecise(
                               config, workload.mapper_factory(),
                               workload.precise_reducer_factory())
                         : runner.runAggregation(config, opt.approx,
                                                 workload.mapper_factory(),
                                                 workload.op);
        } catch (const journal::DriverKilledError& e) {
            std::fprintf(stderr, "%s; resuming from journal '%s'\n",
                         e.what(), journal_path.c_str());
            // Close the dead incarnation's journal handle before
            // re-reading the file, and drop its partial observability:
            // resume re-executes from the start, so the next attempt
            // produces the complete trace on its own.
            jj.reset();
            jj = journal::JobJournal::resumeFile(journal_path);
            if (g_obs != nullptr) {
                g_obs = std::make_unique<obs::Observability>();
            }
            continue;
        }
        printResult(opt, result);
        int code = kExitOk;
        if (g_obs != nullptr) {
            code = emitObsArtifacts(opt, obs::JobReport::build(
                                             opt.app, config, result,
                                             g_obs.get()));
        }
        if (opt.selfcheck && !opt.precise) {
            mr::JobResult precise = apps::runPreciseReference(
                workload, *data, config, clusterConfigFor(opt), opt.seed);
            int check = selfcheckAgainst(result, precise);
            return check != kExitOk ? check : code;
        }
        return code;
    }
}

int
runApp(const Options& opt)
{
    // --- Multi-stage-sampling aggregations (registry dispatch) --------------
    if (const apps::AggregationWorkload* workload =
            apps::findAggregationWorkload(opt.app)) {
        return runAggregationWorkload(opt, *workload);
    }

    // Journaling covers the registry aggregation workloads only: those
    // are the jobs the chaos harness kills and resumes, and the only
    // ones whose full configuration round-trips through a RunSpec.
    if (!opt.journal.empty() || !opt.resume.empty()) {
        std::fprintf(stderr,
                     "--journal/--resume support the registry aggregation "
                     "workloads only, not '%s'\n",
                     opt.app.c_str());
        return kExitBadUsage;
    }

    // --- DC Placement (GEV) ---------------------------------------------------
    if (opt.app == "dcplacement") {
        workloads::DCPlacementParams pp;
        pp.sa_iterations = 400;
        pp.seed = opt.seed;
        auto problem =
            std::make_shared<const workloads::DCPlacementProblem>(pp);
        uint64_t maps = opt.blocks ? opt.blocks : 80;
        uint64_t seeds_per_map = opt.items ? opt.items : 2;
        auto seeds =
            workloads::makeDCPlacementSeeds(maps, seeds_per_map, opt.seed);
        sim::ClusterConfig cc = clusterConfigFor(opt);
        cc.map_slots_per_server = 4;
        sim::Cluster cluster(cc);
        hdfs::NameNode nn(cluster.numServers(), 3, opt.seed);
        core::ApproxJobRunner runner(cluster, *seeds, nn);
        runner.setObservability(g_obs.get());
        mr::JobConfig config = apps::DCPlacementApp::jobConfig(
            seeds_per_map, opt.reducers);
        applyCommonConfig(opt, config);
        mr::JobResult result =
            opt.precise
                ? runner.runPrecise(
                      config, apps::DCPlacementApp::mapperFactory(problem),
                      apps::DCPlacementApp::preciseReducerFactory())
                : runner.runExtreme(
                      config, opt.approx,
                      apps::DCPlacementApp::mapperFactory(problem), true);
        printResult(opt, result);
        if (g_obs != nullptr) {
            return emitObsArtifacts(opt, obs::JobReport::build(
                                             opt.app, config, result,
                                             g_obs.get()));
        }
        return kExitOk;
    }

    // --- Video encoding (user-defined approximation) --------------------------
    if (opt.app == "video") {
        uint64_t blocks = opt.blocks ? opt.blocks : 160;
        uint64_t frames = opt.items ? opt.items : 120;
        auto data = apps::FrameEncoderApp::makeFrames(blocks, frames,
                                                      opt.seed);
        sim::Cluster cluster(clusterConfigFor(opt));
        hdfs::NameNode nn(cluster.numServers(), 3, opt.seed);
        core::ApproxJobRunner runner(cluster, *data, nn);
        runner.setObservability(g_obs.get());
        mr::JobConfig config =
            apps::FrameEncoderApp::jobConfig(frames, opt.reducers);
        applyCommonConfig(opt, config);
        mr::JobResult result = runner.runUserDefined(
            config, opt.approx, apps::FrameEncoderApp::mapperFactory(),
            apps::FrameEncoderApp::reducerFactory());
        printResult(opt, result);
        if (g_obs != nullptr) {
            return emitObsArtifacts(opt, obs::JobReport::build(
                                             opt.app, config, result,
                                             g_obs.get()));
        }
        return kExitOk;
    }

    std::fprintf(stderr,
                 "unknown app '%s'; valid apps:\n  %s dcplacement video\n",
                 opt.app.c_str(),
                 apps::aggregationWorkloadNames().c_str());
    return kExitBadUsage;
}

/** Shared tail of main(): logging, observability, dispatch, and the
 *  failure-class exit-code mapping. */
int
runWithOptions(const Options& opt)
{
    Logger::instance().setLevel(opt.verbose ? LogLevel::kInfo
                                            : LogLevel::kWarn);
    if (!opt.report_json.empty() || !opt.trace_out.empty()) {
        g_obs = std::make_unique<obs::Observability>();
    }
    try {
        return runApp(opt);
    } catch (const mr::JobFailedError& e) {
        // Retry exhaustion under FailureMode::kRetry: report what faults
        // led up to the abort, with a distinct exit code for scripts.
        std::fprintf(stderr, "job failed: %s\n", e.what());
        std::fprintf(stderr, "fault summary: %s\n",
                     e.counters.faultSummary().c_str());
        if (g_obs != nullptr) {
            // The JobConfig that failed is out of scope here; rebuild the
            // determinism-relevant knobs from the CLI options so the
            // failed-run report still records them.
            mr::JobConfig config;
            config.name = opt.app;
            config.num_reducers = opt.reducers;
            applyCommonConfig(opt, config);
            emitObsArtifacts(opt,
                             obs::JobReport::fromFailure(
                                 opt.app, config, e.what(), e.counters,
                                 g_obs.get()));
        }
        return kExitJobFailed;
    } catch (const journal::JournalError& e) {
        // Unreadable/corrupt journal, or a resumed run diverging from
        // its sealed prefix: bad input, never a crash.
        std::fprintf(stderr, "journal error: %s\n", e.what());
        return kExitBadUsage;
    } catch (const std::invalid_argument& e) {
        // Config rejected at job start (e.g. `server=ID` outside the
        // fleet): a usage error, not a runtime failure.
        std::fprintf(stderr, "config error: %s\n", e.what());
        return kExitBadUsage;
    }
}

/**
 * `approxrun --resume FILE [...]`: reconstruct the full configuration
 * from the journal header, then run it through the normal dispatch. Only
 * presentation knobs (and --threads, which never changes results) may be
 * given — everything that shapes the job is journaled and authoritative.
 */
int
resumeMain(int argc, char** argv)
{
    if (argc < 3) {
        std::fprintf(stderr, "missing value for --resume\n");
        usage();
        return kExitBadUsage;
    }
    Options opt;
    try {
        journal::LoadedJournal loaded =
            journal::parseJournal(journal::readJournalFile(argv[2]));
        opt = optionsFromSpec(loaded.spec);
    } catch (const journal::JournalError& e) {
        std::fprintf(stderr, "journal error: %s\n", e.what());
        return kExitBadUsage;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "journal error: header invalid: %s\n",
                     e.what());
        return kExitBadUsage;
    }
    opt.resume = argv[2];
    for (int i = 3; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", arg.c_str());
                std::exit(kExitBadUsage);
            }
            return argv[++i];
        };
        if (arg == "--threads") {
            const char* v = value();
            std::optional<uint64_t> n = parseUint64(v);
            if (!n || *n < 1 || *n > 1024) {
                badValue(arg, "an integer in [1, 1024]", v);
                return kExitBadUsage;
            }
            opt.threads = static_cast<uint32_t>(*n);
        } else if (arg == "--top") {
            const char* v = value();
            std::optional<uint64_t> top = parseUint64(v);
            if (!top || *top > 1000000) {
                badValue(arg, "a non-negative integer", v);
                return kExitBadUsage;
            }
            opt.top = static_cast<int>(*top);
        } else if (arg == "--report-json") {
            opt.report_json = value();
        } else if (arg == "--trace-out") {
            opt.trace_out = value();
        } else if (arg == "--verbose") {
            opt.verbose = true;
        } else {
            std::fprintf(stderr,
                         "%s cannot be combined with --resume: the job "
                         "configuration is read back from the journal\n",
                         arg.c_str());
            return kExitBadUsage;
        }
    }
    return runWithOptions(opt);
}

}  // namespace

int
main(int argc, char** argv)
{
    if (argc >= 2 && (std::string(argv[1]) == "--help" ||
                      std::string(argv[1]) == "-h")) {
        usage();
        return kExitOk;
    }
    if (argc >= 2 && std::string(argv[1]) == "--list-workloads") {
        return listWorkloads();
    }
    if (argc >= 2 && std::string(argv[1]) == "--resume") {
        return resumeMain(argc, argv);
    }
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        usage();
        return kExitBadUsage;
    }
    if (opt.fault_plan.hasDriverCrash() && opt.journal.empty()) {
        std::fprintf(stderr,
                     "--fault-plan dcrash= requires --journal FILE: "
                     "driver-crash recovery resumes from the journal\n");
        return kExitBadUsage;
    }
    if (opt.journal_interval != 0 && opt.journal.empty()) {
        std::fprintf(stderr, "--journal-interval requires --journal\n");
        return kExitBadUsage;
    }
    return runWithOptions(opt);
}
