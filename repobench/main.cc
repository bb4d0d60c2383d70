/**
 * @file
 * repobench: the repository benchmark. Runs one workload for a
 * fixed host time as a closed loop with one client (jobs back to back),
 * checks every output, and prints the metrics as a table and, on the
 * last line, one JSON object:
 *
 *   repobench --workload NAME --seed N --seconds S --trace 0|1
 *
 * --trace 0 prints the end-to-end metrics from untraced jobs, with host
 * times scaled to a reference host speed (calibrate.h). --trace 1
 * runs each job untraced and then traced, prints the per-layer metrics,
 * and writes the spans to .bench_out/spans-<workload>-seed<N>.csv. Exit
 * status: 0 when every check passed, 1 when one
 * failed, 2 on bad usage. See README.md beside this file.
 */
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "calibrate.h"
#include "jobs.h"
#include "layers.h"
#include "trace.h"

namespace mr = approxhadoop::mr;
using namespace repobench;

namespace {

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 3;
/** Calibration kernel passes before each set-up. */
constexpr int kSetupCalibrations = 5;
/** Before each job the loop runs calibration passes until they have
 *  taken this share of its time so far. */
constexpr double kCalibrationShare = 0.15;
/** The loop stops here even if the fixed jobs are not done, so a run
 *  always ends well inside its time limit. */
constexpr double kHardCapSeconds = 140.0;
/** Where traced runs write their spans, relative to the working
 *  directory (the repository root under run.py). */
constexpr const char* kSpanDir = ".bench_out";

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
};

bool
parseArgs(int argc, char** argv, Args& args)
{
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc) {
            return false;
        }
        std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = !value.empty() && *end == '\0';
            if (!have_seed) {
                return false;
            }
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(args.seconds > 0.0) ||
                args.seconds > 120.0) {
                return false;
            }
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") {
                return false;
            }
            args.trace = value == "1" ? 1 : 0;
        } else {
            return false;
        }
    }
    return findWorkload(args.workload) != nullptr && have_seed &&
           args.seconds > 0.0 && args.trace >= 0;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string note;
};

/** Per-layer figures of one traced job. */
struct LayerSample
{
    std::map<std::string, double> values;
};

constexpr double kNsPerMs = 1e6;
constexpr double kBytesPerMb = 1024.0 * 1024.0;

/**
 * Attributes one traced job's spans to layers. @p spans are the job's
 * spans (root first). Returns false when the driver thread's self times
 * do not add up to the root span, which would mean a broken span tree.
 */
bool
layerSample(const std::vector<Span>& spans, uint32_t threads,
            LayerSample& out)
{
    const Span& root = spans.front();
    int64_t job_ns = root.end_ns - root.start_ns;
    std::vector<int64_t> self = selfTimes(spans);
    std::map<std::string, double> ns;
    int64_t driver_total = 0;
    int64_t task_busy = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::string name = s.name;
        std::string layer = name.substr(0, name.find('.'));
        bool driver = s.thread == root.thread;
        if (name == "exec.task") {
            task_busy += s.end_ns - s.start_ns;
        }
        if (driver) {
            driver_total += self[i];
        }
        if (name == "job" || name == "mapreduce.run" || name == "exec.task") {
            if (driver) {
                ns["mapreduce.self_ms"] += self[i];
            }
        } else if (layer == "hdfs") {
            ns["hdfs.read_ms"] += self[i];
        } else if (layer == "apps") {
            ns["apps.map_ms"] += self[i];
        } else if (layer == "core") {
            ns["core.controller_ms"] += self[i];
        } else if (name == "journal.seal" || name == "journal.create") {
            ns["journal.seal_ms"] += self[i];
        } else if (name == "journal.resume") {
            ns["journal.resume_ms"] += self[i];
        } else if (name == "trace.copy") {
            ns["trace.copy_ms"] += self[i];
        } else {
            // reduce.consume -> reduce.consume_ms, etc.
            ns[name + "_ms"] += self[i];
        }
    }
    for (const char* key :
         {"hdfs.read_ms", "apps.map_ms", "reduce.consume_ms",
          "reduce.finalize_ms", "reduce.checkpoint_ms", "reduce.restore_ms",
          "mapreduce.self_ms", "core.controller_ms", "journal.seal_ms",
          "journal.resume_ms", "trace.copy_ms"}) {
        out.values[key] = ns[key] / kNsPerMs;
    }
    out.values["exec.worker_busy_share"] =
        static_cast<double>(task_busy) /
        (static_cast<double>(threads) * static_cast<double>(job_ns));
    return driver_total == job_ns;
}

void
printTable(const std::string& workload, uint64_t seed,
           const std::vector<Metric>& metrics)
{
    std::printf("repobench %s seed %llu\n", workload.c_str(),
                static_cast<unsigned long long>(seed));
    for (const Metric& m : metrics) {
        std::printf("  %-28s %16.6f %-8s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    }
}

void
printJson(bool correct, uint64_t attempted, uint64_t failed,
          const std::vector<Metric>& metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

double
mean(const std::vector<double>& v)
{
    double sum = 0.0;
    for (double x : v) {
        sum += x;
    }
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

int
run(const Args& args)
{
    const WorkloadSpec& spec = *findWorkload(args.workload);
    const bool traced = args.trace == 1;
    const uint32_t threads = execThreads(spec);
    bool correct = true;

    HostCalibration calibration(threads);
    const uint64_t calibration_digest = calibration.checksum();

    // --- set-up: dataset, cluster, precise reference, cache warming ----
    std::vector<double> setup_s;
    Fixture fixture;
    std::string first_reference;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        fixture = Fixture{};
        for (int pass = 0; pass < kSetupCalibrations; ++pass) {
            calibration.measure();
        }
        auto t0 = std::chrono::steady_clock::now();
        fixture = setUp(mixSeed(args.seed, 1));
        setup_s.push_back(secondsSince(t0));
        std::string ref = fingerprint(fixture.reference);
        if (rep == 0) {
            first_reference = ref;
        } else if (ref != first_reference) {
            std::fprintf(stderr, "set-up %d: reference differs\n", rep);
            correct = false;
        }
    }

    // --- the closed loop -----------------------------------------------
    Tracer tracer;
    std::vector<double> job_ms;
    std::vector<double> traced_ms;
    std::vector<double> sim_s;
    std::vector<double> rel_halfwidth;
    std::vector<LayerSample> layers;
    uint64_t records = 0;
    uint64_t covered = 0;
    uint64_t intervals = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::string job0;
    auto loop_start = std::chrono::steady_clock::now();
    const double setup_calibration_ms = calibration.totalMs();
    for (uint32_t i = 0;; ++i) {
        double elapsed = secondsSince(loop_start);
        if ((i >= spec.fixed_jobs && elapsed >= args.seconds) ||
            elapsed >= kHardCapSeconds) {
            if (i < spec.fixed_jobs) {
                std::fprintf(stderr, "only %u of %zu fixed jobs ran\n", i,
                             spec.fixed_jobs);
                correct = false;
            }
            break;
        }
        while (calibration.totalMs() - setup_calibration_ms <
               kCalibrationShare * secondsSince(loop_start) * 1e3) {
            calibration.measure();
        }
        const uint64_t job_seed = mixSeed(args.seed, 1000 + i);
        ++attempted;
        std::string error;
        mr::JobResult result;
        auto t0 = std::chrono::steady_clock::now();
        try {
            result = runJob(spec, fixture, job_seed);
        } catch (const std::exception& e) {
            error = e.what();
        }
        job_ms.push_back(secondsSince(t0) * 1e3);
        if (error.empty()) {
            error = checkOutput(spec, fixture, result);
        }
        if (i == 0) {
            job0 = fingerprint(result);
        }
        records += result.counters.items_processed;
        if (i < spec.fixed_jobs) {
            sim_s.push_back(result.runtime);
            Accuracy acc = accuracyOf(fixture, result);
            covered += acc.covered;
            intervals += acc.intervals;
            rel_halfwidth.push_back(acc.rel_halfwidth);
        }

        if (traced && error.empty()) {
            LayerCounts counts;
            uint32_t first = tracer.lastId();
            mr::JobResult tr;
            auto t1 = std::chrono::steady_clock::now();
            try {
                tr = runTracedJob(spec, fixture, job_seed, i, tracer, counts);
            } catch (const std::exception& e) {
                error = std::string("traced: ") + e.what();
            }
            traced_ms.push_back(secondsSince(t1) * 1e3);
            LayerSample sample;
            if (error.empty() && fingerprint(tr) != fingerprint(result)) {
                error = "traced result differs from the untraced one";
            }
            if (error.empty() &&
                !layerSample(tracer.spansSince(first), threads, sample)) {
                error = "span self times do not add up to the job span";
            }
            if (error.empty()) {
                Replay replay = replayChunks(counts.chunks, i, tracer);
                counts.chunks.clear();
                if (!replay.verified) {
                    error = "replayed chunk integrity check failed";
                }
                const mr::Counters& c = result.counters;
                auto& v = sample.values;
                v["hdfs.records_read"] =
                    static_cast<double>(counts.records_read.load());
                v["hdfs.read_mb"] =
                    static_cast<double>(counts.bytes_read.load()) / kBytesPerMb;
                v["hdfs.cached_mb"] =
                    static_cast<double>(counts.cached_bytes) / kBytesPerMb;
                v["apps.records_emitted"] =
                    static_cast<double>(counts.records_emitted.load());
                v["mapreduce.records_shuffled"] =
                    static_cast<double>(c.records_shuffled);
                v["mapreduce.chunks_delivered"] =
                    static_cast<double>(c.chunks_delivered);
                v["mapreduce.attempts_launched"] =
                    static_cast<double>(c.map_attempts_launched);
                v["mapreduce.useful_attempt_share"] =
                    c.map_attempts_launched == 0
                        ? 0.0
                        : static_cast<double>(c.maps_completed) /
                              static_cast<double>(c.map_attempts_launched);
                v["mapreduce.chunk_refetches"] =
                    static_cast<double>(c.chunk_refetches);
                v["mapreduce.intern_ms"] = replay.intern_ms;
                v["mapreduce.distinct_keys"] =
                    static_cast<double>(replay.distinct_keys);
                v["integrity.stamp_ms"] = replay.stamp_ms;
                v["integrity.verify_ms"] = replay.verify_ms;
                v["integrity.hashed_mb"] =
                    static_cast<double>(replay.hashed_bytes) / kBytesPerMb;
                v["core.controller_calls"] =
                    static_cast<double>(counts.controller_calls);
                v["core.processed_share"] =
                    c.items_total == 0
                        ? 0.0
                        : static_cast<double>(c.items_processed) /
                              static_cast<double>(c.items_total);
                v["core.maps_dropped"] = static_cast<double>(c.maps_dropped);
                v["reduce.checkpoint_mb"] =
                    static_cast<double>(counts.checkpoint_bytes) / kBytesPerMb;
                v["journal.epochs"] = static_cast<double>(counts.epochs);
                v["journal.written_mb"] =
                    static_cast<double>(counts.journal_bytes) / kBytesPerMb;
                layers.push_back(sample);
            }
        }
        if (!error.empty()) {
            ++failed;
            std::fprintf(stderr, "job %u (seed %llu) failed: %s\n", i,
                         static_cast<unsigned long long>(job_seed),
                         error.c_str());
        }
    }
    // Taken before the audit below, whose chunk copies are trace cost.
    const double peak_rss_mb = peakRssMb();
    if (!traced) {
        // Audit: the decorated assembly of job 0 must reproduce the
        // untimed result bit for bit, and its chunks must re-verify.
        ++attempted;
        LayerCounts counts;
        std::string error;
        try {
            mr::JobResult tr = runTracedJob(spec, fixture,
                                            mixSeed(args.seed, 1000), 0,
                                            tracer, counts);
            if (fingerprint(tr) != job0) {
                error = "traced result differs from the untraced one";
            } else if (!replayChunks(counts.chunks, 0, tracer).verified) {
                error = "replayed chunk integrity check failed";
            }
        } catch (const std::exception& e) {
            error = std::string("traced: ") + e.what();
        }
        if (!error.empty()) {
            ++failed;
            std::fprintf(stderr, "audit of job 0 failed: %s\n",
                         error.c_str());
        }
    }
    if (calibration.checksum() != calibration_digest) {
        std::fprintf(stderr, "calibration kernel did different work\n");
        correct = false;
    }
    correct = correct && failed == 0;

    std::vector<Metric> metrics;
    if (!traced) {
        // Host times are scaled to the reference host; the notes give
        // the raw wall-clock figures.
        const double scale = calibration.scale();
        Tail tail = tailOf(job_ms);
        double job_s = 0.0;
        for (double ms : job_ms) {
            job_s += ms / 1e3;
        }
        const double raw_p50 = median(job_ms);
        const double raw_rate = static_cast<double>(records) / job_s;
        const double raw_setup = median(setup_s);
        char p50_note[96];
        char tail_note[96];
        char rate_note[96];
        char setup_note[128];
        std::snprintf(p50_note, sizeof(p50_note),
                      "wall %.3f ms; kernel %.3f ms over %zu passes", raw_p50,
                      calibration.typicalMs(), calibration.samples());
        std::snprintf(tail_note, sizeof(tail_note),
                      "wall %.3f ms; p%.1f of %zu jobs", tail.value,
                      tail.percentile, tail.samples);
        std::snprintf(rate_note, sizeof(rate_note), "wall %.1f/s", raw_rate);
        std::snprintf(setup_note, sizeof(setup_note),
                      "wall %.4f s; median of %d set-ups", raw_setup,
                      kSetupReps);
        metrics = {
            {"job_ms_p50", raw_p50 * scale, "ms", p50_note},
            {"job_ms_tail", tail.value * scale, "ms", tail_note},
            {"records_per_s", raw_rate / scale, "1/s", rate_note},
            {"setup_s", raw_setup * scale, "s", setup_note},
            {"peak_rss_mb", peak_rss_mb, "MB", ""},
            {"sim_job_s", mean(sim_s), "sim_s", "mean of the fixed jobs"},
            {"ci_coverage",
             intervals == 0 ? 0.0
                            : static_cast<double>(covered) /
                                  static_cast<double>(intervals),
             "share", ""},
            {"ok_share",
             static_cast<double>(attempted - failed) /
                 static_cast<double>(attempted),
             "share", "jobs passing every check"},
        };
    } else {
        std::map<std::string, std::vector<double>> by_name;
        for (const LayerSample& s : layers) {
            for (const auto& [name, value] : s.values) {
                by_name[name].push_back(value);
            }
        }
        auto med = [&by_name](const std::string& name) {
            auto it = by_name.find(name);
            return it == by_name.end() || it->second.empty()
                       ? 0.0
                       : median(it->second);
        };
        struct Row
        {
            const char* name;
            const char* unit;
        };
        static const Row kRows[] = {
            {"hdfs.read_ms", "ms"},
            {"hdfs.records_read", "count"},
            {"hdfs.read_mb", "MB"},
            {"hdfs.cached_mb", "MB"},
            {"exec.worker_busy_share", "share"},
            {"apps.map_ms", "ms"},
            {"apps.records_emitted", "count"},
            {"reduce.consume_ms", "ms"},
            {"reduce.finalize_ms", "ms"},
            {"mapreduce.self_ms", "ms"},
            {"mapreduce.records_shuffled", "count"},
            {"mapreduce.chunks_delivered", "count"},
            {"mapreduce.attempts_launched", "count"},
            {"mapreduce.useful_attempt_share", "share"},
            {"mapreduce.chunk_refetches", "count"},
            {"mapreduce.intern_ms", "ms"},
            {"mapreduce.distinct_keys", "count"},
            {"integrity.stamp_ms", "ms"},
            {"integrity.verify_ms", "ms"},
            {"integrity.hashed_mb", "MB"},
            {"core.controller_ms", "ms"},
            {"core.controller_calls", "count"},
            {"core.processed_share", "share"},
            {"core.maps_dropped", "count"},
            {"reduce.checkpoint_ms", "ms"},
            {"reduce.checkpoint_mb", "MB"},
            {"reduce.restore_ms", "ms"},
            {"journal.seal_ms", "ms"},
            {"journal.epochs", "count"},
            {"journal.written_mb", "MB"},
            {"journal.resume_ms", "ms"},
            {"trace.copy_ms", "ms"},
        };
        for (const Row& row : kRows) {
            metrics.push_back({row.name, med(row.name), row.unit, ""});
        }
        metrics.push_back({"core.ci_rel_halfwidth", mean(rel_halfwidth),
                           "share", "mean of the fixed jobs"});
        metrics.push_back(
            {"trace.overhead_share",
             traced_ms.empty() ? 0.0
                               : median(traced_ms) / median(job_ms) - 1.0,
             "share", "traced / untraced job_ms_p50 - 1"});
        std::string path = std::string(kSpanDir) + "/spans-" + args.workload +
                           "-seed" + std::to_string(args.seed) + ".csv";
        std::error_code ec;
        std::filesystem::create_directories(kSpanDir, ec);
        if (!tracer.writeCsv(path)) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            correct = false;
        } else {
            std::fprintf(stderr, "spans written to %s\n", path.c_str());
        }
    }
    for (const Metric& m : metrics) {
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
            correct = false;
        }
    }
    printTable(args.workload, args.seed, metrics);
    printJson(correct, attempted, failed, metrics);
    std::fflush(stdout);
    return correct ? 0 : 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: repobench --workload NAME --seed N --seconds S "
                     "--trace 0|1\n"
                     "workloads: cold-precise warm-precise warm-target "
                     "journal-recovery\n");
        return 2;
    }
    try {
        return run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "repobench: %s\n", e.what());
        return 1;
    }
}
