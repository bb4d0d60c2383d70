#ifndef APPROXHADOOP_WORKLOADS_WIKI_DUMP_H_
#define APPROXHADOOP_WORKLOADS_WIKI_DUMP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hdfs/dataset.h"

namespace approxhadoop::workloads {

/**
 * Synthetic stand-in for the May 2014 English Wikipedia dump the paper
 * analyzes (14M articles, 161 blocks of the 9.8 GB bzip2 file).
 *
 * Each record is one article: "id <TAB> size_bytes <TAB> l1,l2,..."
 * where size follows a lognormal article-length distribution and the
 * link targets follow a Zipf law (popular articles attract most links).
 * A per-block size multiplier models the within-block locality of real
 * dumps (articles stored close together are similar), which is what
 * makes task dropping produce wider confidence intervals than input
 * sampling at equal volume (paper Section 5.2).
 */
struct WikiDumpParams
{
    /** Blocks (= map tasks). The paper's dump splits into 161. */
    uint64_t num_blocks = 161;
    /** Articles per block (scaled down from ~87k; see DESIGN.md). */
    uint64_t articles_per_block = 400;
    /** Lognormal parameters of the article size in bytes. */
    double size_mu = 7.2;
    double size_sigma = 1.1;
    /** Lognormal sigma of the per-block size multiplier (locality). */
    double block_effect_sigma = 0.25;
    /** Mean outgoing links per article (geometric distribution). */
    double mean_links = 4.0;
    /** Distinct link-target articles. */
    uint64_t num_link_targets = 2000;
    /** Zipf exponent of link-target popularity. */
    double link_zipf = 1.05;
    /** Root seed. */
    uint64_t seed = 2014;
};

/** Builds the synthetic dump as a lazily generated dataset. */
std::unique_ptr<hdfs::BlockDataset>
makeWikiDump(const WikiDumpParams& params);

/** Parses the size field of a dump record. */
uint64_t wikiArticleSize(std::string_view record);

/**
 * Appends the link targets of a dump record to @p out, as views into
 * @p record.
 */
void wikiArticleLinks(std::string_view record,
                      std::vector<std::string_view>& out);

}  // namespace approxhadoop::workloads

#endif  // APPROXHADOOP_WORKLOADS_WIKI_DUMP_H_
