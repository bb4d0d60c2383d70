#ifndef REPOBENCH_TRACE_H_
#define REPOBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

/**
 * @file
 * Outside-in span recorder for the repository benchmark. Spans are
 * opened and closed by the benchmark's own decorators around calls into
 * each layer's public interface; nothing inside the program records
 * them. Spans are kept in memory and written out when the run ends.
 */
namespace repobench {

/** One timed interval at a layer boundary. */
struct Span
{
    /** 1-based id; 0 means "no span". */
    uint32_t id = 0;
    /** Span that caused this one (0 for a job root). A worker-thread
     *  span's parent may live on another thread. */
    uint32_t parent = 0;
    /** Benchmark job index the span belongs to. */
    uint32_t job = 0;
    /** Small per-thread index, in order of first use. */
    uint32_t thread = 0;
    /** Static span name, "<layer>.<operation>". */
    const char* name = "";
    /** Nanoseconds since the tracer was created. */
    int64_t start_ns = 0;
    int64_t end_ns = 0;
};

/**
 * Collects spans from any thread. Each thread keeps its own stack of
 * open spans, so a span's parent is the innermost span open on the same
 * thread; a thread with no open span (a map worker) parents its spans
 * under the anchor set with setContext(). One tracer may be active per
 * process at a time (the per-thread stacks are process-wide).
 */
class Tracer
{
  public:
    Tracer();
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /** Sets the job index and the anchor span for spans opened on a
     *  thread with an empty stack. Publish before handing work to other
     *  threads. */
    void setContext(uint32_t job, uint32_t anchor);

    /** Opens a span on the calling thread and returns its id. */
    uint32_t open(const char* name);

    /** Closes span @p id, which must be the innermost open span of the
     *  calling thread. */
    void close(uint32_t id);

    /** Copy of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Spans with id > @p after_id (ids are dense and ordered). */
    std::vector<Span> spansSince(uint32_t after_id) const;

    /** Id of the last span opened (0 if none). */
    uint32_t lastId() const;

    /**
     * Writes spans as CSV: id,name,job,parent,thread,start_ns,end_ns.
     * @return false when the file cannot be written
     */
    bool writeCsv(const std::string& path) const;

  private:
    int64_t now() const;

    std::chrono::steady_clock::time_point epoch_;
    std::atomic<uint32_t> job_{0};
    std::atomic<uint32_t> anchor_{0};
    mutable std::mutex mu_;
    std::vector<Span> spans_;  // guarded by mu_; index = id - 1
};

/** Opens a span for the enclosing scope (closed on unwind too). */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer& tracer, const char* name)
        : tracer_(tracer), id_(tracer.open(name))
    {
    }
    ~ScopedSpan() { tracer_.close(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    uint32_t id() const { return id_; }

  private:
    Tracer& tracer_;
    uint32_t id_;
};

/**
 * Self time of every span, indexed like @p spans: its duration minus the
 * part of its interval covered by its children on the same thread.
 * Children on other threads run concurrently and are not subtracted.
 */
std::vector<int64_t> selfTimes(const std::vector<Span>& spans);

/** The tail statistic: the highest percentile with at least ten samples
 *  beyond it. */
struct Tail
{
    double value = 0.0;
    /** Percentile of value, 100 * (n - 10) / n. */
    double percentile = 0.0;
    size_t samples = 0;
};

/**
 * Sorted rank n - 11 (0-based), the largest sample with ten samples
 * above it. With ten samples or fewer no such percentile exists; the
 * median is returned and its percentile is 50.
 * @pre !values.empty()
 */
Tail tailOf(std::vector<double> values);

/** Median (mean of the two middle values for even counts). @pre non-empty */
double median(std::vector<double> values);

}  // namespace repobench

#endif  // REPOBENCH_TRACE_H_
