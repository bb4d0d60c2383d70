#ifndef APPROXHADOOP_WORKLOADS_WEBSERVER_LOG_H_
#define APPROXHADOOP_WORKLOADS_WEBSERVER_LOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "hdfs/dataset.h"
#include "workloads/intensity.h"

namespace approxhadoop::workloads {

/**
 * Synthetic departmental web-server access log, modeled on the 80-week
 * Rutgers CS log of the paper's sensitivity study (Section 5.4): one
 * block per week, stable request rates with a diurnal/weekly pattern
 * (~33% variation between the busiest and quietest hours) plus rare
 * attack events from a small set of attacker clients.
 *
 * Record: "hour_of_week <TAB> client <TAB> url <TAB> bytes <TAB> browser
 * <TAB> attack_flag".
 */
struct WebServerLogParams
{
    /** Blocks = weeks of the log (paper: 80). */
    uint64_t num_weeks = 80;
    /** Log lines per week block (paper's log has ~50k/week; scaled). */
    uint64_t entries_per_week = 600;
    /** Distinct client IPs. */
    uint64_t num_clients = 3000;
    /** Zipf exponent of per-client request counts. */
    double client_zipf = 1.1;
    /** Distinct URLs. */
    uint64_t num_urls = 800;
    double url_zipf = 1.0;
    /** Fraction of requests that match a known attack pattern. */
    double attack_prob = 0.004;
    /** Distinct attacker clients (attacks are concentrated). */
    uint64_t num_attackers = 25;
    /** Mean response size in bytes. */
    double mean_bytes = 24000.0;
    uint64_t seed = 2012;
};

/** Builds the synthetic web-server log. */
std::unique_ptr<hdfs::BlockDataset>
makeWebServerLog(const WebServerLogParams& params);

/** One parsed web-server log record with zero-copy field views. */
struct WebLogEntryView
{
    /** Hour within the week, 0..167 (0 = Monday 00:00). */
    uint32_t hour_of_week = 0;
    std::string_view client;
    std::string_view url;
    uint64_t bytes = 0;
    std::string_view browser;
    bool attack = false;
};

/**
 * Parses a web-server log record (returns false on malformed input). The
 * fields are views into @p record and dangle once it is gone.
 */
bool parseWebLogEntry(std::string_view record, WebLogEntryView& entry);

// weeklyIntensity(hour_of_week) now lives in workloads/intensity.h so the
// service ArrivalGenerator shares the exact implementation.

}  // namespace approxhadoop::workloads

#endif  // APPROXHADOOP_WORKLOADS_WEBSERVER_LOG_H_
