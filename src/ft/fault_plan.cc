#include "ft/fault_plan.h"

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <set>
#include <stdexcept>

#include "common/text.h"

namespace approxhadoop::ft {

namespace {

double
parseNumber(const std::string& token, const std::string& what)
{
    std::optional<double> v = parseDouble(token);
    if (!v) {
        throw std::invalid_argument("fault plan: bad " + what + " '" +
                                    token +
                                    "' (want a finite decimal number)");
    }
    return *v;
}

double
parseProbability(const std::string& token, const char* what)
{
    double p = parseNumber(token, what);
    if (!(p >= 0.0 && p <= 1.0)) {
        throw std::invalid_argument(std::string("fault plan: ") + what +
                                    " must be in [0, 1], got '" + token +
                                    "'");
    }
    return p;
}

uint32_t
parseCount(const std::string& token, const char* what)
{
    std::optional<uint64_t> v = parseUint64(token);
    if (!v || *v == 0 || *v > 100000) {
        throw std::invalid_argument(std::string("fault plan: ") + what +
                                    " '" + token +
                                    "' must be an integer in [1, 100000]");
    }
    return static_cast<uint32_t>(*v);
}

/** Parses the shared "T[+D]" time-and-optional-duration tail. */
void
parseWhen(const std::string& when_spec, const std::string& what,
          double& at, double* down_for)
{
    std::string when = when_spec;
    size_t plus = when.find('+');
    if (plus != std::string::npos) {
        if (down_for == nullptr) {
            throw std::invalid_argument("fault plan: " + what +
                                        " takes no +D duration");
        }
        *down_for = parseNumber(when.substr(plus + 1), what + " duration");
        if (*down_for < 0.0) {
            throw std::invalid_argument("fault plan: " + what +
                                        " duration must be >= 0");
        }
        when = when.substr(0, plus);
    }
    at = parseNumber(when, what + " time");
    if (at < 0.0) {
        throw std::invalid_argument("fault plan: " + what +
                                    " time must be >= 0");
    }
}

}  // namespace

bool
FaultPlan::enabled() const
{
    return task_crash_prob > 0.0 || chunk_corrupt_prob > 0.0 ||
           bad_record_prob > 0.0 || reduce_crash_prob > 0.0 ||
           straggler_prob > 0.0 || changesFleet() || hasDriverCrash();
}

bool
FaultPlan::changesFleet() const
{
    return !server_crashes.empty() || !revocations.empty() ||
           !scale_outs.empty() || !drains.empty();
}

FaultPlan
FaultPlan::parse(const std::string& spec)
{
    FaultPlan plan;
    if (spec.empty()) {
        return plan;
    }
    std::set<std::string> seen;
    for (const std::string& clause : split(spec, ',')) {
        size_t eq = clause.find('=');
        if (eq == std::string::npos) {
            throw std::invalid_argument("fault plan: clause '" + clause +
                                        "' is not key=value");
        }
        std::string key = clause.substr(0, eq);
        std::string value = clause.substr(eq + 1);
        // The scheduled-event keys may legitimately repeat (several
        // crashes/storms/resizes); for every other key a repeat is a
        // spec mistake, not a merge.
        bool repeatable = key == "server" || key == "revoke" ||
                          key == "addsrv" || key == "drain" ||
                          key == "dcrash";
        if (!repeatable && !seen.insert(key).second) {
            throw std::invalid_argument("fault plan: duplicate clause '" +
                                        key + "'");
        }
        if (key == "crash") {
            plan.task_crash_prob =
                parseProbability(value, "crash probability");
        } else if (key == "corrupt") {
            plan.chunk_corrupt_prob =
                parseProbability(value, "corrupt probability");
        } else if (key == "badrec") {
            plan.bad_record_prob =
                parseProbability(value, "badrec probability");
        } else if (key == "rcrash") {
            plan.reduce_crash_prob =
                parseProbability(value, "rcrash probability");
        } else if (key == "straggler") {
            std::vector<std::string> f = split(value, ':');
            if (f.empty() || f.size() > 3) {
                throw std::invalid_argument(
                    "fault plan: straggler wants P[:F[:S]]");
            }
            plan.straggler_prob =
                parseProbability(f[0], "straggler probability");
            if (f.size() > 1) {
                plan.straggler_factor =
                    parseNumber(f[1], "straggler factor");
                if (plan.straggler_factor < 1.0) {
                    throw std::invalid_argument(
                        "fault plan: straggler factor must be >= 1");
                }
            }
            if (f.size() > 2) {
                plan.straggler_sigma = parseNumber(f[2], "straggler sigma");
                if (plan.straggler_sigma < 0.0) {
                    throw std::invalid_argument(
                        "fault plan: straggler sigma must be >= 0");
                }
            }
        } else if (key == "server") {
            size_t at = value.find('@');
            if (at == std::string::npos) {
                throw std::invalid_argument(
                    "fault plan: server wants ID@T[+D]");
            }
            std::optional<uint64_t> id = parseUint64(value.substr(0, at));
            if (!id || *id > UINT32_MAX) {
                throw std::invalid_argument(
                    "fault plan: bad server id '" + value.substr(0, at) +
                    "' (want an integer below 2^32)");
            }
            ServerCrash crash;
            crash.server = static_cast<uint32_t>(*id);
            parseWhen(value.substr(at + 1), "server", crash.at,
                      &crash.down_for);
            plan.server_crashes.push_back(crash);
        } else if (key == "revoke") {
            size_t at = value.find('@');
            if (at == std::string::npos) {
                throw std::invalid_argument(
                    "fault plan: revoke wants N@T[+D]");
            }
            Revocation storm;
            storm.count =
                parseCount(value.substr(0, at), "revoke count");
            parseWhen(value.substr(at + 1), "revoke", storm.at,
                      &storm.down_for);
            plan.revocations.push_back(storm);
        } else if (key == "addsrv") {
            size_t at = value.find('@');
            if (at == std::string::npos) {
                throw std::invalid_argument(
                    "fault plan: addsrv wants NCLASS@T (e.g. 4atom@90)");
            }
            std::string term = value.substr(0, at);
            size_t digits = 0;
            while (digits < term.size() &&
                   std::isdigit(static_cast<unsigned char>(
                       term[digits]))) {
                ++digits;
            }
            if (digits == 0 || digits == term.size()) {
                throw std::invalid_argument(
                    "fault plan: addsrv wants NCLASS@T (e.g. 4atom@90)");
            }
            ScaleOut add;
            add.count = parseCount(term.substr(0, digits), "addsrv count");
            add.server_class = term.substr(digits);
            if (add.server_class != "xeon" && add.server_class != "atom") {
                throw std::invalid_argument(
                    "fault plan: addsrv class '" + add.server_class +
                    "' unknown (want xeon or atom)");
            }
            parseWhen(value.substr(at + 1), "addsrv", add.at, nullptr);
            plan.scale_outs.push_back(add);
        } else if (key == "drain") {
            size_t at = value.find('@');
            if (at == std::string::npos) {
                throw std::invalid_argument("fault plan: drain wants N@T");
            }
            Drain drain;
            drain.count = parseCount(value.substr(0, at), "drain count");
            parseWhen(value.substr(at + 1), "drain", drain.at, nullptr);
            plan.drains.push_back(drain);
        } else if (key == "dcrash") {
            double at = parseNumber(value, "dcrash time");
            if (!(at > 0.0)) {
                throw std::invalid_argument(
                    "fault plan: dcrash time must be > 0");
            }
            plan.driver_crashes.push_back(at);
        } else if (key == "seed") {
            std::optional<uint64_t> seed = parseUint64(value);
            if (!seed) {
                throw std::invalid_argument(
                    "fault plan: bad seed '" + value +
                    "' (want a non-negative integer)");
            }
            plan.seed = *seed;
        } else {
            throw std::invalid_argument("fault plan: unknown clause '" +
                                        key + "'");
        }
    }
    return plan;
}

std::string
FaultPlan::spec() const
{
    std::string out;
    auto clause = [&out](const std::string& text) {
        if (!out.empty()) {
            out += ',';
        }
        out += text;
    };
    if (task_crash_prob > 0.0) {
        clause("crash=" + formatSpecNumber(task_crash_prob));
    }
    if (chunk_corrupt_prob > 0.0) {
        clause("corrupt=" + formatSpecNumber(chunk_corrupt_prob));
    }
    if (bad_record_prob > 0.0) {
        clause("badrec=" + formatSpecNumber(bad_record_prob));
    }
    if (reduce_crash_prob > 0.0) {
        clause("rcrash=" + formatSpecNumber(reduce_crash_prob));
    }
    if (straggler_prob > 0.0) {
        std::string s = "straggler=" + formatSpecNumber(straggler_prob) + ':' +
                        formatSpecNumber(straggler_factor);
        if (straggler_sigma > 0.0) {
            s += ':' + formatSpecNumber(straggler_sigma);
        }
        clause(s);
    }
    for (const ServerCrash& crash : server_crashes) {
        std::string s = "server=" + std::to_string(crash.server) + '@' +
                        formatSpecNumber(crash.at);
        if (crash.down_for >= 0.0) {
            s += '+' + formatSpecNumber(crash.down_for);
        }
        clause(s);
    }
    for (const Revocation& storm : revocations) {
        std::string s = "revoke=" + std::to_string(storm.count) + '@' +
                        formatSpecNumber(storm.at);
        if (storm.down_for >= 0.0) {
            s += '+' + formatSpecNumber(storm.down_for);
        }
        clause(s);
    }
    for (const ScaleOut& add : scale_outs) {
        clause("addsrv=" + std::to_string(add.count) + add.server_class +
               '@' + formatSpecNumber(add.at));
    }
    for (const Drain& drain : drains) {
        clause("drain=" + std::to_string(drain.count) + '@' +
               formatSpecNumber(drain.at));
    }
    for (double at : driver_crashes) {
        clause("dcrash=" + formatSpecNumber(at));
    }
    if (seed != 0) {
        clause("seed=" + std::to_string(seed));
    }
    return out;
}

const std::vector<std::string>&
FaultPlan::specKeys()
{
    static const std::vector<std::string> kKeys = {
        "crash",  "corrupt", "badrec", "rcrash", "straggler", "server",
        "revoke", "addsrv",  "drain",  "dcrash", "seed"};
    return kKeys;
}

std::string
FaultPlan::helpText()
{
    return "comma-separated clauses (all optional):\n"
           "  crash=P            per-attempt map crash probability\n"
           "  corrupt=P          per-fetch shuffle-chunk corruption "
           "probability\n"
           "  badrec=P           per-record bad-input probability\n"
           "  rcrash=P           per-attempt reduce crash probability\n"
           "  straggler=P:F[:S]  probability, slowdown factor >= 1, "
           "optional lognormal sigma\n"
           "  server=ID@T[+D]    crash server ID at simulated time T, "
           "repaired after D s (repeatable)\n"
           "  revoke=N@T[+D]     kill N servers at once at time T "
           "(correlated revocation storm; kills min(N, alive-1) so the "
           "job can finish); +D repairs them, else they leave for good "
           "(repeatable)\n"
           "  addsrv=NCLASS@T    N servers of CLASS (xeon|atom) join "
           "the fleet at time T (repeatable)\n"
           "  drain=N@T          gracefully decommission N servers at "
           "time T, newest first (repeatable)\n"
           "  dcrash=T           kill the driver at simulated time T; "
           "the restarted driver resumes from its --journal "
           "(repeatable)\n"
           "  seed=S             fault-stream seed (non-negative "
           "integer)\n"
           "e.g. \"crash=0.05,straggler=0.02:6,server=3@120+60,seed=7\" "
           "or \"revoke=3@60,addsrv=4atom@90\"\n";
}

std::string
FaultPlan::summary() const
{
    if (!enabled()) {
        return "none";
    }
    char buf[448];
    std::snprintf(buf, sizeof(buf),
                  "crash=%.3g corrupt=%.3g badrec=%.3g rcrash=%.3g "
                  "straggler=%.3g:%.3g server-crashes=%zu revoke=%zu "
                  "addsrv=%zu drain=%zu dcrash=%zu seed=%llu",
                  task_crash_prob, chunk_corrupt_prob, bad_record_prob,
                  reduce_crash_prob, straggler_prob, straggler_factor,
                  server_crashes.size(), revocations.size(),
                  scale_outs.size(), drains.size(), driver_crashes.size(),
                  static_cast<unsigned long long>(seed));
    return buf;
}

}  // namespace approxhadoop::ft
