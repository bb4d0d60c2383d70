#ifndef APPROXHADOOP_WORKLOADS_ACCESS_LOG_H_
#define APPROXHADOOP_WORKLOADS_ACCESS_LOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hdfs/dataset.h"

namespace approxhadoop::workloads {

/**
 * Synthetic Wikipedia access log, modeled on the Wikimedia pageview
 * logs the paper processes (46 GB/week compressed; 12.5 TB/year raw).
 *
 * Record: "ts <TAB> project <TAB> page <TAB> bytes". Project popularity
 * follows a Zipf law over ~2,640 projects (the English project dominates,
 * as in the paper); pages within a project follow a second Zipf law with
 * "Main_Page" of the top project as the global maximum. Each block covers
 * a time slice, and a per-block set of trending pages adds the temporal
 * locality that widens task-dropping confidence intervals.
 */
struct AccessLogParams
{
    /** Blocks (= map tasks). The paper's 1-week log splits into 744. */
    uint64_t num_blocks = 744;
    /** Log lines per block (scaled down; see DESIGN.md). */
    uint64_t entries_per_block = 400;
    /** Distinct projects (paper: >2,640). */
    uint64_t num_projects = 2640;
    /** Zipf exponent of project popularity. */
    double project_zipf = 1.15;
    /** Distinct pages per project (modeled, not enumerated). */
    uint64_t pages_per_project = 5000;
    /** Zipf exponent of page-within-project popularity. */
    double page_zipf = 1.05;
    /** Probability a request hits one of the block's trending pages. */
    double trending_prob = 0.08;
    /** Trending pages per block. */
    uint64_t trending_pages = 4;
    /** Mean response size in bytes. */
    double mean_bytes = 12000.0;
    uint64_t seed = 2013;
};

/** Builds the synthetic access log as a lazily generated dataset. */
std::unique_ptr<hdfs::BlockDataset>
makeAccessLog(const AccessLogParams& params);

/** One parsed access-log record with zero-copy field views. */
struct AccessLogEntryView
{
    uint64_t timestamp = 0;
    std::string_view project;
    std::string_view page;
    uint64_t bytes = 0;
};

/**
 * Parses an access-log record (returns false on malformed input). The
 * fields are views into @p record and dangle once it is gone.
 */
bool parseAccessLogEntry(std::string_view record, AccessLogEntryView& entry);

/**
 * Table 2 of the paper: log sizes per period. periodBlocks() returns the
 * number of 64 MB blocks (= map tasks) for each period, derived from the
 * compressed sizes the paper reports.
 */
struct LogPeriod
{
    const char* name;
    double accesses_billions;
    double compressed_gb;
    double uncompressed_gb;
    uint64_t num_maps;
};

/** The ten periods of Table 2 (1 day through 1 year). */
const std::vector<LogPeriod>& logPeriods();

}  // namespace approxhadoop::workloads

#endif  // APPROXHADOOP_WORKLOADS_ACCESS_LOG_H_
