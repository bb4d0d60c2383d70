#ifndef APPROXHADOOP_JOURNAL_SINK_H_
#define APPROXHADOOP_JOURNAL_SINK_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

/**
 * @file
 * The journal hook surface mr::Job sees. Header-only on purpose: the
 * mapreduce layer observes its own state into Epoch records and hands
 * them to an abstract EpochSink without linking against the journal
 * codec (src/journal/journal.h), which keeps the dependency graph
 * acyclic — approx_journal links integrity, mapreduce links neither.
 */
namespace approxhadoop::journal {

/**
 * One sealed checkpoint of a running job, captured at a consistency
 * point (wave boundary, map-completion interval, or job completion).
 * Every field is a pure observation of driver state — capturing an
 * epoch never perturbs the run, so journal-on and journal-off runs are
 * bit-identical.
 *
 * Epochs are the crash-consistency proof for resume-by-re-execution:
 * a resumed driver replays the job from the journal header's RunSpec
 * and *verifies* each re-reached consistency point against the sealed
 * epoch recorded by the crashed run. Any divergence means the journal
 * and the binary/config disagree, and resume aborts with a diagnostic
 * instead of silently producing a different answer.
 */
struct Epoch
{
    /** kind codes */
    static constexpr uint32_t kWave = 0;
    static constexpr uint32_t kInterval = 1;
    static constexpr uint32_t kFinal = 2;
    /** Appended by each resume attempt before re-execution; its count
     *  is the number of driver crashes already survived (the dcrash
     *  skip cursor). */
    static constexpr uint32_t kResumeMarker = 3;

    /** Position in the journal's epoch stream (markers included). */
    uint64_t index = 0;
    uint32_t kind = kWave;
    /** Wave number for kWave epochs; -1 otherwise. */
    int32_t wave = -1;
    /** Simulated clock at capture. */
    double sim_time = 0.0;
    uint64_t maps_completed = 0;
    /** Terminal tasks (completed + killed + dropped + absorbed). */
    uint64_t maps_terminal = 0;
    /** mr::Counters::serialize() snapshot. */
    std::string counters_blob;
    /** (task_id, chunk-checksum digest) for map outputs delivered to
     *  reducers since the previous epoch. */
    std::vector<std::pair<uint64_t, uint64_t>> delivered;
    /** XXH64 over the driver Rng's raw state words and draw position. */
    uint64_t rng_digest = 0;
    /** Controller-pending plan state for not-yet-started maps. */
    double pending_sampling_ratio = 1.0;
    double pending_approx_fraction = 0.0;
    /** JobController::journalState() blob (replan state). */
    std::string controller_blob;
    /** Reducer::checkpoint() blob per reducer ("" when unsupported). */
    std::vector<std::string> reducer_state;
    /** Records shuffled into each reducer so far. */
    std::vector<uint64_t> reducer_records;
};

/** Receiver for job epochs (journal::JobJournal, or a test double). */
class EpochSink
{
  public:
    virtual ~EpochSink() = default;

    /**
     * Called by mr::Job at each consistency point. May throw (e.g. a
     * resume-divergence JournalError); the exception aborts the run.
     */
    virtual void onEpoch(const Epoch& epoch) = 0;
};

/**
 * Thrown by a `dcrash=T` fault event to terminate the driver mid-run.
 * Propagates out of mr::Job::run() past every catch for the contractual
 * JobFailedError: a driver kill is not a job failure, it is the host
 * process dying, and only a restart loop holding the journal (approxrun,
 * the chaos oracle) may catch it.
 */
class DriverKilledError : public std::runtime_error
{
  public:
    explicit DriverKilledError(double at)
        : std::runtime_error("driver killed (dcrash fault) at t=" +
                             std::to_string(at)),
          at_(at)
    {
    }

    double at() const { return at_; }

  private:
    double at_;
};

}  // namespace approxhadoop::journal

#endif  // APPROXHADOOP_JOURNAL_SINK_H_
