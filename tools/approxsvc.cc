/**
 * @file
 * approxsvc — multi-tenant service simulator CLI. Runs a JobService
 * simulation from a compact spec string and prints a per-tenant
 * summary; --report-json writes the machine-readable
 * approxhadoop-service-report/1 document (validated by
 * `obscheck --service-report`, byte-identical across same-spec runs).
 *
 *   approxsvc "tenants=2,arrival=0.05,duration=600,seed=7"
 *   approxsvc "tenants=2,arrival=0.05,slo=150+0" --report-json out.json
 *
 * Exit codes: 0 ok, 1 simulation error, 2 bad usage/spec.
 */
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "common/text.h"
#include "service/job_service.h"
#include "service/report.h"
#include "service/service_spec.h"

using namespace approxhadoop;

namespace {

void
usage()
{
    std::printf(
        "usage: approxsvc <spec> [--report-json FILE] [--quiet]\n"
        "\n"
        "runs a multi-tenant JobService simulation: seeded Poisson\n"
        "arrivals over the shared diurnal curve, priority admission,\n"
        "weighted fair-share slot arbitration, end-game speculation,\n"
        "and accuracy-for-latency degradation under queue pressure\n"
        "\n%s"
        "\n"
        "  --report-json FILE  write the service report "
        "(approxhadoop-service-report/1)\n"
        "  --quiet             suppress the per-tenant table\n"
        "\n"
        "exit codes: 0 ok, 1 simulation error, 2 bad usage/spec\n",
        service::serviceSpecHelp().c_str());
}

void
printTable(const service::ServiceReport& report)
{
    std::printf("service: %llu jobs submitted, %llu completed, %llu "
                "failed; makespan %.1f s; peak queue %llu; %.1f Wh\n",
                static_cast<unsigned long long>(report.jobs_submitted),
                static_cast<unsigned long long>(report.jobs_completed),
                static_cast<unsigned long long>(report.jobs_failed),
                report.sim_makespan,
                static_cast<unsigned long long>(report.peak_queue_depth),
                report.energy_wh);
    std::printf("%-8s %4s %6s %5s %5s %9s %9s %9s %9s %8s %5s\n", "tenant",
                "prio", "weight", "jobs", "done", "p50(s)", "p99(s)",
                "ci-mean", "ci-max", "slot-s", "degr");
    for (const service::TenantReport& t : report.tenants) {
        std::printf(
            "%-8s %4u %6.1f %5llu %5llu %9.1f %9.1f %9.4f %9.4f %8.1f "
            "%5llu\n",
            t.name.c_str(), t.priority, t.weight,
            static_cast<unsigned long long>(t.jobs_submitted),
            static_cast<unsigned long long>(t.jobs_completed),
            t.p50_latency, t.p99_latency, t.mean_rel_ci_width,
            t.max_rel_ci_width, t.slot_seconds,
            static_cast<unsigned long long>(t.jobs_degraded));
        if (t.slo_seconds > 0.0) {
            std::printf("         slo %.1f s: %llu violation(s)\n",
                        t.slo_seconds,
                        static_cast<unsigned long long>(t.slo_violations));
        }
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    std::string spec_text;
    std::string report_path;
    bool quiet = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--report-json" && i + 1 < argc) {
            report_path = argv[++i];
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "approxsvc: unknown flag '%s'\n",
                         arg.c_str());
            usage();
            return 2;
        } else if (spec_text.empty()) {
            spec_text = arg;
        } else {
            std::fprintf(stderr, "approxsvc: more than one spec given\n");
            usage();
            return 2;
        }
    }
    if (spec_text.empty()) {
        usage();
        return 2;
    }

    service::ServiceSpec spec;
    try {
        spec = service::parseServiceSpec(spec_text);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "approxsvc: %s\n", e.what());
        return 2;
    }

    try {
        service::JobService svc(spec);
        service::ServiceReport report = svc.run();
        if (!quiet) {
            printTable(report);
        }
        if (!report_path.empty() &&
            !writeFile(report_path, report.toJson() + "\n")) {
            std::fprintf(stderr, "approxsvc: cannot write %s: %s\n",
                         report_path.c_str(), std::strerror(errno));
            return 1;
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "approxsvc: %s\n", e.what());
        return 1;
    }
}
