#include "workloads/wiki_dump.h"

#include <gtest/gtest.h>

#include "stats/moments.h"

namespace approxhadoop::workloads {
namespace {

TEST(WikiDumpTest, ShapeMatchesParams)
{
    WikiDumpParams params;
    params.num_blocks = 10;
    params.articles_per_block = 50;
    auto ds = makeWikiDump(params);
    EXPECT_EQ(ds->numBlocks(), 10u);
    EXPECT_EQ(ds->itemsInBlock(3), 50u);
    EXPECT_EQ(ds->totalItems(), 500u);
}

TEST(WikiDumpTest, RecordsAreDeterministic)
{
    WikiDumpParams params;
    params.num_blocks = 4;
    params.articles_per_block = 10;
    auto ds1 = makeWikiDump(params);
    auto ds2 = makeWikiDump(params);
    for (uint64_t b = 0; b < 4; ++b) {
        for (uint64_t i = 0; i < 10; ++i) {
            EXPECT_EQ(ds1->item(b, i), ds2->item(b, i));
        }
    }
}

TEST(WikiDumpTest, RecordsParse)
{
    WikiDumpParams params;
    params.num_blocks = 6;
    params.articles_per_block = 40;
    auto ds = makeWikiDump(params);
    uint64_t total_links = 0;
    for (uint64_t b = 0; b < 6; ++b) {
        for (uint64_t i = 0; i < 40; ++i) {
            std::string record = ds->item(b, i);
            EXPECT_GT(wikiArticleSize(record), 0u) << record;
            std::vector<std::string_view> links;
            wikiArticleLinks(record, links);
            total_links += links.size();
            for (std::string_view l : links) {
                EXPECT_EQ(l[0], 'a');
            }
        }
    }
    // Mean ~4 links per article over 240 articles.
    EXPECT_GT(total_links, 500u);
    EXPECT_LT(total_links, 2000u);
}

TEST(WikiDumpTest, SizesAreHeavyTailed)
{
    WikiDumpParams params;
    params.num_blocks = 20;
    params.articles_per_block = 100;
    auto ds = makeWikiDump(params);
    stats::RunningMoments sizes;
    for (uint64_t b = 0; b < 20; ++b) {
        for (uint64_t i = 0; i < 100; ++i) {
            sizes.add(static_cast<double>(wikiArticleSize(ds->item(b, i))));
        }
    }
    // Lognormal: max far above mean, stddev comparable to mean.
    EXPECT_GT(sizes.max(), 5.0 * sizes.mean());
    EXPECT_GT(sizes.stddev(), 0.5 * sizes.mean());
}

TEST(WikiDumpTest, BlocksHaveSizeLocality)
{
    // Between-block variance of mean sizes should exceed what IID
    // sampling alone would produce, thanks to the block effect.
    WikiDumpParams params;
    params.num_blocks = 40;
    params.articles_per_block = 200;
    params.block_effect_sigma = 0.5;
    auto ds = makeWikiDump(params);

    stats::RunningMoments block_means;
    stats::RunningMoments all;
    for (uint64_t b = 0; b < params.num_blocks; ++b) {
        stats::RunningMoments block;
        for (uint64_t i = 0; i < params.articles_per_block; ++i) {
            double s = static_cast<double>(
                wikiArticleSize(ds->item(b, i)));
            block.add(s);
            all.add(s);
        }
        block_means.add(block.mean());
    }
    // Under IID, Var(block mean) = Var(all)/200. Locality should inflate
    // it several-fold.
    double iid_variance = all.variance() / 200.0;
    EXPECT_GT(block_means.variance(), 3.0 * iid_variance);
}

TEST(WikiDumpTest, MalformedRecordHelpers)
{
    EXPECT_EQ(wikiArticleSize("no-tabs-here"), 0u);
    std::vector<std::string_view> links;
    wikiArticleLinks("no-tabs-here", links);
    EXPECT_TRUE(links.empty());
    wikiArticleLinks("a1\t100\t", links);
    EXPECT_TRUE(links.empty());
}

}  // namespace
}  // namespace approxhadoop::workloads
