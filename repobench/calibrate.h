#ifndef REPOBENCH_CALIBRATE_H_
#define REPOBENCH_CALIBRATE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

/**
 * @file
 * Host-speed calibration. The benchmark's host is a few cores of a
 * shared machine whose speed drifts by tens of percent over seconds to
 * minutes; CPU time inflates as much as wall time, so it is contention,
 * not waiting. A run therefore times a fixed kernel of its own between
 * jobs and reports every host time scaled to a host on which that
 * kernel takes kReferenceMs. The kernel shares no code with the
 * program, so a change to the program moves the scaled times exactly as
 * it moves the raw ones.
 *
 * The kernel is the CPU-bound part of a precise job in miniature
 * (format, split, parse and group text records; 64-bit mixing). Memory
 * streaming and pointer chasing were tried as well and barely moved
 * when the jobs slowed, so they are left out. A pass runs one copy of
 * the kernel on each of the workload's executor threads and lasts until
 * the slowest ends, as a job's map wave does.
 */
namespace repobench {

class HostCalibration
{
  public:
    /** Kernel time, in ms, of the reference host the times are scaled
     *  to: about the mean pass on the 4-vCPU Xeon VM the benchmark was
     *  tuned on, where passes take 16–25 ms as the host drifts. */
    static constexpr double kReferenceMs = 20.0;

    /** Runs a pass untimed (first-touch allocations). @pre threads > 0 */
    explicit HostCalibration(uint32_t threads);

    /** Runs a pass and records its wall time. */
    void measure();
    /** Records one pass time; measure() calls it. */
    void record(double ms);

    size_t samples() const { return ms_.size(); }
    /** Sum of the recorded kernel times. */
    double totalMs() const { return total_ms_; }

    /**
     * Trimmed mean of the recorded pass times. One pass sees the host of
     * its moment, which swings by ±20% from pass to pass; the jobs see
     * the average over the run. Scaling each job by the passes nearest
     * it instead made the tail noisier: the job and the kernel do not
     * slow by quite the same factor, and the tail picks the mismatches.
     * @pre samples() > 0
     */
    double typicalMs() const;

    /** Factor that turns a time on this host into one on the reference
     *  host: kReferenceMs / typicalMs(). */
    double scale() const;

    /** Digest of the last pass; the same on every pass, which shows the
     *  kernel does fixed work. */
    uint64_t checksum() const { return checksum_; }

  private:
    uint64_t runPass() const;

    uint32_t threads_;
    std::vector<double> ms_;
    double total_ms_ = 0.0;
    uint64_t checksum_ = 0;
};

/** Mean without the lowest and highest tenth, at least one of each when
 *  there are three values or more (preemption spikes).
 *  @pre !values.empty() */
double trimmedMean(std::vector<double> values);

}  // namespace repobench

#endif  // REPOBENCH_CALIBRATE_H_
