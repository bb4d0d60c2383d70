#ifndef APPROXHADOOP_BENCH_BENCH_UTIL_H_
#define APPROXHADOOP_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/text.h"
#include "obs/json.h"

namespace approxhadoop::benchutil {

/** Mean / min / max over repetitions, as the paper's range bars report. */
struct Agg
{
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
};

inline Agg
aggregate(const std::vector<double>& values)
{
    Agg agg;
    if (values.empty()) {
        return agg;
    }
    agg.min = values.front();
    agg.max = values.front();
    for (double v : values) {
        agg.mean += v;
        agg.min = std::min(agg.min, v);
        agg.max = std::max(agg.max, v);
    }
    agg.mean /= static_cast<double>(values.size());
    return agg;
}

/**
 * Median over repetitions — the statistic the committed BENCH_*.json
 * baselines and tools/benchdiff gate on, because it is robust to the
 * occasional slow rep on a shared CI runner.
 */
inline double
median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    if (n % 2 == 1) {
        return values[n / 2];
    }
    return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Prints the experiment banner (paper artifact id + description). */
inline void
printTitle(const char* artifact, const char* description)
{
    std::printf("==================================================="
                "=========================\n");
    std::printf("%s — %s\n", artifact, description);
    std::printf("==================================================="
                "=========================\n");
}

/**
 * Parses a repetition count. Accepts only a complete decimal integer
 * >= 1; rejects "0", negative values, leading/trailing garbage, and
 * overflow, so a typo'd APPROX_BENCH_REPS fails loudly instead of
 * silently running zero (or the fallback number of) repetitions.
 */
inline std::optional<int>
parseReps(const char* text)
{
    std::optional<uint64_t> reps =
        text == nullptr ? std::nullopt : parseUint64(text);
    if (!reps || *reps < 1 || *reps > 1000000) {
        return std::nullopt;
    }
    return static_cast<int>(*reps);
}

/**
 * Repetitions per configuration. The paper repeats each experiment 20
 * times; the default here keeps full-suite wall time modest. Override
 * with APPROX_BENCH_REPS; an unparsable value aborts the benchmark
 * rather than producing a baseline measured with the wrong rep count.
 */
inline int
repetitions(int fallback = 3)
{
    const char* env = std::getenv("APPROX_BENCH_REPS");
    if (env == nullptr) {
        return fallback;
    }
    std::optional<int> reps = parseReps(env);
    if (!reps.has_value()) {
        std::fprintf(stderr,
                     "fatal: APPROX_BENCH_REPS=\"%s\" is not a positive "
                     "integer\n",
                     env);
        std::exit(2);
    }
    return *reps;
}

/**
 * Builder for the committed BENCH_*.json perf baselines.
 *
 * Schema ("approxhadoop-bench/1"): a flat object of named scalar
 * metrics. tools/benchdiff interprets metric names by convention:
 *
 *   - names ending in "_per_sec" are throughputs — gated at the
 *     regression threshold (new must be >= old * (1 - threshold));
 *   - names starting with "sim_" are simulated results — required to
 *     match the baseline bit-exactly (any drift means the optimization
 *     changed behavior, not just speed);
 *   - everything else is informational context (recorded, not gated).
 *
 * Doubles go through obs::JsonWriter's shortest-round-trip formatter,
 * so equal values always serialize to equal bytes.
 */
class BenchReport
{
  public:
    BenchReport(std::string bench, int reps)
        : bench_(std::move(bench)), reps_(reps)
    {
    }

    void metric(const std::string& name, double value)
    {
        metrics_.emplace_back(name, value);
    }

    std::string toJson() const
    {
        obs::JsonWriter w;
        w.beginObject();
        w.field("schema", "approxhadoop-bench/1");
        w.field("bench", bench_);
        w.field("reps", reps_);
        w.beginObject("metrics");
        for (const auto& [name, value] : metrics_) {
            w.field(name, value);
        }
        w.endObject();
        w.endObject();
        return w.str();
    }

    /** Writes the report; returns false (with a message) on I/O error. */
    bool write(const std::string& path) const
    {
        if (!writeFile(path, toJson() + "\n")) {
            std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                         std::strerror(errno));
            return false;
        }
        std::printf("\nwrote %s\n", path.c_str());
        return true;
    }

    int reps() const { return reps_; }

  private:
    std::string bench_;
    int reps_ = 0;
    std::vector<std::pair<std::string, double>> metrics_;
};

}  // namespace approxhadoop::benchutil

#endif  // APPROXHADOOP_BENCH_BENCH_UTIL_H_
