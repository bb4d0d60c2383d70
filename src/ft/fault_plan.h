#ifndef APPROXHADOOP_FT_FAULT_PLAN_H_
#define APPROXHADOOP_FT_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace approxhadoop::ft {

/**
 * Declarative description of the faults to inject into one job run.
 *
 * A plan is *deterministic given a seed*: the FaultInjector derives every
 * fault decision from (job seed, plan seed, task id, attempt index), so a
 * plan reproduces the identical failure pattern across reruns and across
 * host thread counts. All times are simulated seconds relative to job
 * start; no fault ever depends on wall-clock time.
 */
struct FaultPlan
{
    /** One scheduled whole-server crash. */
    struct ServerCrash
    {
        /** Server id within the cluster. */
        uint32_t server = 0;
        /** Crash time, simulated seconds after job start. */
        double at = 0.0;
        /**
         * Seconds until the server is repaired and rejoins the cluster;
         * < 0 means it stays down for the rest of the job.
         */
        double down_for = -1.0;
    };

    /**
     * One correlated revocation storm: @p count servers killed in the
     * same instant (the spot-market generalization of ServerCrash).
     * Victims are drawn deterministically from (job seed, plan seed,
     * storm index) among the servers still in the fleet, always leaving
     * at least one schedulable server so the job can finish.
     */
    struct Revocation
    {
        /** Servers killed by this storm. */
        uint32_t count = 1;
        /** Storm time, simulated seconds after job start. */
        double at = 0.0;
        /**
         * Seconds until the victims are repaired and rejoin; < 0 means
         * the revocation is permanent (the victims leave the fleet).
         */
        double down_for = -1.0;
    };

    /** One scheduled scale-out: @p count servers of @p server_class
     *  join the fleet at time @p at. */
    struct ScaleOut
    {
        uint32_t count = 1;
        /** Hardware class grammar name ("xeon" or "atom"). */
        std::string server_class = "xeon";
        /** Join time, simulated seconds after job start. */
        double at = 0.0;
    };

    /**
     * One scheduled graceful decommission: @p count servers begin
     * draining at time @p at (finish running work, take nothing new,
     * retire once drained). The highest-numbered eligible servers are
     * chosen — LIFO scale-in, the way autoscalers release the newest
     * capacity first — always leaving at least one schedulable server.
     */
    struct Drain
    {
        uint32_t count = 1;
        /** Drain start, simulated seconds after job start. */
        double at = 0.0;
    };

    /** Probability that any single map attempt crashes mid-execution. */
    double task_crash_prob = 0.0;

    /**
     * Probability that one shuffle-chunk fetch arrives corrupted (per
     * chunk per fetch; a refetch rolls independently). Detected by the
     * reduce-side checksum verification in src/integrity/.
     */
    double chunk_corrupt_prob = 0.0;

    /** Probability that any single input record is bad and must be
     *  skipped by the mapper (Hadoop's skip-bad-records, bounded). */
    double bad_record_prob = 0.0;

    /** Probability that a reduce attempt crashes mid-delivery and must
     *  restart from its last checkpoint. */
    double reduce_crash_prob = 0.0;

    /** Probability that an attempt is slowed down as an injected
     *  straggler (on top of the cost model's own straggler machinery). */
    double straggler_prob = 0.0;

    /** Median slowdown multiplier for injected stragglers (>= 1). */
    double straggler_factor = 4.0;

    /**
     * Lognormal sigma of the straggler slowdown distribution; 0 makes
     * every injected straggler exactly straggler_factor times slower.
     */
    double straggler_sigma = 0.0;

    /** Scheduled server crashes. */
    std::vector<ServerCrash> server_crashes;

    /** Scheduled correlated revocation storms. */
    std::vector<Revocation> revocations;

    /** Scheduled mid-job scale-outs. */
    std::vector<ScaleOut> scale_outs;

    /** Scheduled graceful decommissions. */
    std::vector<Drain> drains;

    /**
     * Scheduled driver kills, simulated seconds after job start: at
     * each time the driver process terminates mid-run (throws
     * journal::DriverKilledError out of the event loop) and must be
     * restarted from its write-ahead journal. Requires journaling —
     * approxrun rejects a dcrash plan without `--journal`. Times past
     * job completion are harmless no-ops. Each survived crash is
     * recorded as a journal resume marker, and on re-execution that
     * many dcrash events are skipped (JobConfig::driver_crash_skip).
     */
    std::vector<double> driver_crashes;

    /** Extra seed mixed into the job seed (vary failure patterns while
     *  keeping the workload fixed). */
    uint64_t seed = 0;

    /** True when the plan injects anything at all. */
    bool enabled() const;

    /** True when the plan changes fleet membership (crashes whole
     *  servers, revokes, resizes, or drains). */
    bool changesFleet() const;

    /** True when the plan schedules driver kills (`dcrash=`). */
    bool hasDriverCrash() const { return !driver_crashes.empty(); }

    /**
     * Parses a command-line plan spec: comma-separated clauses
     *
     *   crash=P            per-attempt crash probability
     *   corrupt=P          per-fetch shuffle-chunk corruption probability
     *   badrec=P           per-record bad-input probability
     *   rcrash=P           per-attempt reduce crash probability
     *   straggler=P:F[:S]  probability, factor, optional lognormal sigma
     *   server=ID@T[+D]    crash server ID at time T, repaired after D s
     *   revoke=N@T[+D]     kill N servers at once at time T (correlated
     *                      revocation storm); +D repairs them after D s,
     *                      otherwise they leave the fleet for good
     *   addsrv=NCLASS@T    N servers of CLASS (xeon|atom) join at time
     *                      T, cluster-grammar term style (e.g. 4atom)
     *   drain=N@T          gracefully decommission N servers at time T
     *   dcrash=T           kill the driver at time T (restart resumes
     *                      from the write-ahead journal; repeatable)
     *   seed=S             fault-stream seed
     *
     * e.g. "crash=0.05,corrupt=0.05,rcrash=0.1,server=3@120+60" or
     * "revoke=3@60,addsrv=4atom@90".
     *
     * Malformed specs are rejected loudly rather than silently
     * accepted: anything but a finite decimal number where one is
     * expected (see common/text.h parseDouble), NaN/negative/>1
     * probabilities, a server ID that is not an integer below 2^32, and
     * duplicate keys (except `server`, `revoke`, `addsrv`, `drain` and
     * `dcrash`, which may repeat) all throw.
     *
     * @throws std::invalid_argument on malformed input
     */
    static FaultPlan parse(const std::string& spec);

    /**
     * Canonical spec string: parse(spec()) reconstructs this plan
     * field-for-field (doubles are printed round-trip exact). Keys at
     * their defaults are omitted; a fully-default plan serializes to "".
     * Used by the chaos harness to emit ready-to-paste `approxrun
     * --fault-plan` reproducers.
     */
    std::string spec() const;

    /** Every clause key parse() accepts, in grammar order. */
    static const std::vector<std::string>& specKeys();

    /** Multi-line, newline-terminated `--fault-plan` grammar for CLI
     *  usage/help output. Mentions every key in specKeys(). */
    static std::string helpText();

    /** Human-readable one-line description (empty plan: "none").
     *  Mentions every non-default clause, including the seed. */
    std::string summary() const;
};

}  // namespace approxhadoop::ft

#endif  // APPROXHADOOP_FT_FAULT_PLAN_H_
