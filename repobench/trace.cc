#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>

namespace repobench {

namespace {

/** Open spans of the calling thread, innermost last. */
thread_local std::vector<uint32_t> t_open;

std::atomic<uint32_t> g_next_thread{0};

/** Calling thread's small index, in order of first use. */
uint32_t
threadIndex()
{
    thread_local uint32_t index = g_next_thread.fetch_add(1);
    return index;
}

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

int64_t
Tracer::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
Tracer::setContext(uint32_t job, uint32_t anchor)
{
    job_.store(job);
    anchor_.store(anchor);
}

uint32_t
Tracer::open(const char* name)
{
    Span span;
    span.name = name;
    span.job = job_.load();
    span.parent = t_open.empty() ? anchor_.load() : t_open.back();
    span.thread = threadIndex();
    span.start_ns = now();
    {
        std::lock_guard<std::mutex> lock(mu_);
        span.id = static_cast<uint32_t>(spans_.size() + 1);
        spans_.push_back(span);
    }
    t_open.push_back(span.id);
    return span.id;
}

void
Tracer::close(uint32_t id)
{
    int64_t end = now();
    if (t_open.empty() || t_open.back() != id) {
        throw std::logic_error("repobench: span closed out of order");
    }
    t_open.pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ns = end;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::vector<Span>
Tracer::spansSince(uint32_t after_id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return std::vector<Span>(spans_.begin() + after_id, spans_.end());
}

uint32_t
Tracer::lastId() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<uint32_t>(spans_.size());
}

bool
Tracer::writeCsv(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    std::fprintf(f, "id,name,job,parent,thread,start_ns,end_ns\n");
    for (const Span& s : spans()) {
        std::fprintf(f, "%u,%s,%u,%u,%u,%lld,%lld\n", s.id, s.name, s.job,
                     s.parent, s.thread, static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
}

std::vector<int64_t>
selfTimes(const std::vector<Span>& spans)
{
    std::map<uint32_t, size_t> index;
    for (size_t i = 0; i < spans.size(); ++i) {
        index[spans[i].id] = i;
    }
    // Same-thread children of each span, as intervals.
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
    for (const Span& s : spans) {
        auto it = index.find(s.parent);
        if (it != index.end() && spans[it->second].thread == s.thread) {
            kids[it->second].emplace_back(s.start_ns, s.end_ns);
        }
    }
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        int64_t lo = spans[i].start_ns;
        int64_t hi = spans[i].end_ns;
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        // Union of the children, clipped to the parent's interval.
        int64_t covered = 0;
        int64_t cur_lo = 0;
        int64_t cur_hi = -1;
        bool open = false;
        for (auto [a, b] : iv) {
            a = std::max(a, lo);
            b = std::min(b, hi);
            if (b <= a) {
                continue;
            }
            if (open && a <= cur_hi) {
                cur_hi = std::max(cur_hi, b);
                continue;
            }
            if (open) {
                covered += cur_hi - cur_lo;
            }
            cur_lo = a;
            cur_hi = b;
            open = true;
        }
        if (open) {
            covered += cur_hi - cur_lo;
        }
        self[i] = (hi - lo) - covered;
    }
    return self;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail
tailOf(std::vector<double> values)
{
    Tail tail;
    tail.samples = values.size();
    if (values.size() <= 10) {
        tail.value = median(values);
        tail.percentile = 50.0;
        return tail;
    }
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    tail.value = values[n - 11];
    tail.percentile = 100.0 * static_cast<double>(n - 10) /
                      static_cast<double>(n);
    return tail;
}

}  // namespace repobench
