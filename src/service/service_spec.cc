#include "service/service_spec.h"

#include <optional>
#include <set>
#include <stdexcept>

#include "common/text.h"
#include "obs/json.h"
#include "sim/cluster.h"

namespace approxhadoop::service {

namespace {

double
parseNumber(const std::string& token, const char* what)
{
    std::optional<double> v = parseDouble(token);
    if (!v) {
        throw std::invalid_argument(std::string("service spec: bad ") +
                                    what + " '" + token +
                                    "' (want a finite decimal number)");
    }
    return *v;
}

double
parsePositive(const std::string& token, const char* what)
{
    double v = parseNumber(token, what);
    if (!(v > 0.0)) {
        throw std::invalid_argument(std::string("service spec: ") + what +
                                    " must be > 0, got '" + token + "'");
    }
    return v;
}

double
parseNonNegative(const std::string& token, const char* what)
{
    double v = parseNumber(token, what);
    if (!(v >= 0.0)) {
        throw std::invalid_argument(std::string("service spec: ") + what +
                                    " must be >= 0, got '" + token + "'");
    }
    return v;
}

uint64_t
parseUint(const std::string& token, const char* what)
{
    std::optional<uint64_t> v = parseUint64(token);
    if (!v) {
        throw std::invalid_argument(std::string("service spec: bad ") +
                                    what + " '" + token +
                                    "' (want a non-negative integer)");
    }
    return *v;
}

/** Builds the default N-class tenant ladder: t0 highest priority,
 *  weights halving per class so higher classes dominate fair share. */
std::vector<TenantClass>
defaultTenants(uint64_t count)
{
    std::vector<TenantClass> tenants;
    for (uint64_t i = 0; i < count; ++i) {
        TenantClass t;
        t.name = "t" + std::to_string(i);
        t.priority = static_cast<uint32_t>(i);
        t.weight = static_cast<double>(uint64_t{1} << (count - 1 - i));
        t.arrival_weight = 1.0;
        tenants.push_back(std::move(t));
    }
    return tenants;
}

}  // namespace

ServiceSpec
parseServiceSpec(const std::string& spec)
{
    ServiceSpec out;
    out.tenants = defaultTenants(2);
    if (spec.empty()) {
        return out;
    }

    std::set<std::string> seen;
    std::vector<double> slos;
    for (const std::string& clause : split(spec, ',')) {
        size_t eq = clause.find('=');
        if (eq == std::string::npos) {
            throw std::invalid_argument("service spec: clause '" + clause +
                                        "' is not key=value");
        }
        std::string key = clause.substr(0, eq);
        std::string value = clause.substr(eq + 1);
        if (!seen.insert(key).second) {
            throw std::invalid_argument("service spec: duplicate clause '" +
                                        key + "'");
        }
        if (key == "tenants") {
            uint64_t n = parseUint(value, "tenant count");
            if (n < 1 || n > 16) {
                throw std::invalid_argument(
                    "service spec: tenants must be in [1, 16]");
            }
            out.tenants = defaultTenants(n);
        } else if (key == "arrival") {
            out.arrival_rate = parsePositive(value, "arrival rate");
        } else if (key == "duration") {
            out.duration = parsePositive(value, "duration");
        } else if (key == "seed") {
            out.seed = parseUint(value, "seed");
        } else if (key == "blocks") {
            out.blocks = parseUint(value, "blocks");
            if (out.blocks == 0) {
                throw std::invalid_argument(
                    "service spec: blocks must be >= 1");
            }
        } else if (key == "items") {
            out.items = parseUint(value, "items");
            if (out.items == 0) {
                throw std::invalid_argument(
                    "service spec: items must be >= 1");
            }
        } else if (key == "reducers") {
            uint64_t r = parseUint(value, "reducers");
            if (r < 1 || r > 1024) {
                throw std::invalid_argument(
                    "service spec: reducers must be in [1, 1024]");
            }
            out.reducers = static_cast<uint32_t>(r);
        } else if (key == "target") {
            out.target_rel_error = parsePositive(value, "target error");
        } else if (key == "pressure") {
            out.pressure_threshold = parseUint(value, "pressure threshold");
        } else if (key == "degrade") {
            out.degrade_factor = parseNumber(value, "degrade factor");
            if (out.degrade_factor < 1.0) {
                throw std::invalid_argument(
                    "service spec: degrade factor must be >= 1");
            }
        } else if (key == "maxscale") {
            out.max_target_scale = parseNumber(value, "max target scale");
            if (out.max_target_scale < 1.0) {
                throw std::invalid_argument(
                    "service spec: maxscale must be >= 1");
            }
        } else if (key == "endgame") {
            out.endgame_left_percent =
                parseNonNegative(value, "endgame percent");
            if (out.endgame_left_percent > 100.0) {
                throw std::invalid_argument(
                    "service spec: endgame percent must be <= 100");
            }
        } else if (key == "preempt" || key == "defer") {
            uint64_t v = parseUint(value, key.c_str());
            if (v > 1) {
                throw std::invalid_argument("service spec: " + key +
                                            " must be 0 or 1");
            }
            (key == "preempt" ? out.preempt : out.defer) = v == 1;
        } else if (key == "slo") {
            for (const std::string& s : split(value, '+')) {
                slos.push_back(parseNonNegative(s, "SLO seconds"));
            }
        } else if (key == "workloads") {
            out.workloads = split(value, '+');
            for (const std::string& w : out.workloads) {
                if (w.empty()) {
                    throw std::invalid_argument(
                        "service spec: empty workload name");
                }
            }
        } else if (key == "cluster") {
            // Full fleet grammar: presets (xeon10, atom60) or mixed
            // terms like 10xeon+20atom. Delegate validation to the
            // cluster-spec parser so the grammars cannot drift apart.
            try {
                (void)sim::ClusterConfig::parse(value);
            } catch (const std::invalid_argument& e) {
                throw std::invalid_argument(
                    std::string("service spec: bad cluster spec: ") +
                    e.what());
            }
            out.cluster = value;
        } else if (key == "straggler" || key == "crash") {
            // Delegate the fault clauses to the fault-plan grammar so
            // the two spec languages cannot drift apart.
            ft::FaultPlan partial = ft::FaultPlan::parse(clause);
            if (key == "straggler") {
                out.fault_plan.straggler_prob = partial.straggler_prob;
                out.fault_plan.straggler_factor = partial.straggler_factor;
                out.fault_plan.straggler_sigma = partial.straggler_sigma;
            } else {
                out.fault_plan.task_crash_prob = partial.task_crash_prob;
            }
        } else {
            throw std::invalid_argument("service spec: unknown clause '" +
                                        key + "'");
        }
    }

    if (!slos.empty()) {
        if (slos.size() != out.tenants.size()) {
            throw std::invalid_argument(
                "service spec: slo wants one value per tenant (" +
                std::to_string(out.tenants.size()) + ", got " +
                std::to_string(slos.size()) + ")");
        }
        for (size_t i = 0; i < slos.size(); ++i) {
            out.tenants[i].slo_seconds = slos[i];
        }
    }
    return out;
}

std::string
specSummary(const ServiceSpec& spec)
{
    // Deterministic number rendering (shortest round-trip) so the
    // summary embedded in the report is byte-stable across runs.
    auto num = [](double v) { return obs::JsonWriter::number(v); };
    std::string s = "tenants=" + std::to_string(spec.tenants.size()) +
                    ",arrival=" + num(spec.arrival_rate) +
                    ",duration=" + num(spec.duration) +
                    ",seed=" + std::to_string(spec.seed) +
                    ",blocks=" + std::to_string(spec.blocks) +
                    ",items=" + std::to_string(spec.items) +
                    ",reducers=" + std::to_string(spec.reducers) +
                    ",target=" + num(spec.target_rel_error) +
                    ",pressure=" + std::to_string(spec.pressure_threshold) +
                    ",degrade=" + num(spec.degrade_factor) +
                    ",maxscale=" + num(spec.max_target_scale) +
                    ",endgame=" + num(spec.endgame_left_percent) +
                    ",cluster=" + spec.cluster;
    if (spec.preempt) {
        s += ",preempt=1";
    }
    if (spec.defer) {
        s += ",defer=1";
    }
    if (spec.fault_plan.enabled()) {
        s += ",faults=" + spec.fault_plan.spec();
    }
    return s;
}

std::string
serviceSpecHelp()
{
    return "service spec clauses (comma-separated key=value):\n"
           "  tenants=N          priority classes t0..t(N-1); t0 highest\n"
           "  arrival=R          aggregate arrival rate, jobs/sim-second\n"
           "  duration=D         arrival window, sim seconds\n"
           "  seed=S             root seed (arrivals and per-job seeds)\n"
           "  blocks=B items=I   per-job dataset shape\n"
           "  reducers=R         reduce tasks per job\n"
           "  target=E           per-job target relative error\n"
           "  pressure=K         queue depth triggering degradation (0=off)\n"
           "  degrade=F          target widening factor per pressure step\n"
           "  maxscale=M         cap on total target widening\n"
           "  endgame=P          endgame speculation left-percent (0=off)\n"
           "  preempt=0|1        suspend the least important running job\n"
           "                     when a more important arrival cannot\n"
           "                     admit (resumed later; no work lost)\n"
           "  defer=0|1          hold lower-priority admissions while a\n"
           "                     priority-0 job is active\n"
           "  slo=A+B+...        per-tenant p99 SLO seconds\n"
           "  workloads=a+b+...  job-mix workload names\n"
           "  cluster=SPEC       xeon10 (default), atom60, or a mixed\n"
           "                     fleet like 10xeon+20atom\n"
           "  straggler=P:F[:S]  injected-straggler fault clause\n"
           "  crash=P            per-attempt crash probability\n";
}

}  // namespace approxhadoop::service
