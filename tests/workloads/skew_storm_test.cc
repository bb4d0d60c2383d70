/**
 * @file
 * Tests for the skew-storm workload: Zipf-sized blocks (straggler bait),
 * hot-key concentration (reducer skew), determinism of item() vs
 * readItems(), and access-log format compatibility so the existing
 * aggregations can consume it unchanged.
 */
#include "workloads/skew_storm.h"

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "workloads/access_log.h"

namespace approxhadoop::workloads {
namespace {

TEST(SkewStormTest, BlockSizesAreZipfSkewedAndDeterministic)
{
    SkewStormParams params;
    params.num_blocks = 200;
    params.items_per_block = 50;
    uint64_t min_items = UINT64_MAX;
    uint64_t max_items = 0;
    for (uint64_t b = 0; b < params.num_blocks; ++b) {
        uint64_t n = skewStormItemsInBlock(params, b);
        // Repeated calls must agree: the sim replays blocks on retry.
        EXPECT_EQ(n, skewStormItemsInBlock(params, b)) << "block " << b;
        // Sizes are integer multiples of the base block size.
        EXPECT_EQ(n % params.items_per_block, 0u) << "block " << b;
        min_items = std::min(min_items, n);
        max_items = std::max(max_items, n);
    }
    // The Zipf rank draw leaves most blocks at the base size but makes
    // some blocks strictly larger — that spread is the whole point.
    EXPECT_EQ(min_items, params.items_per_block);
    EXPECT_GT(max_items, params.items_per_block);
}

TEST(SkewStormTest, SingleSizeClassDisablesTheSkew)
{
    SkewStormParams params;
    params.num_blocks = 50;
    params.items_per_block = 40;
    params.size_classes = 1;
    for (uint64_t b = 0; b < params.num_blocks; ++b) {
        EXPECT_EQ(skewStormItemsInBlock(params, b), 40u) << "block " << b;
    }
}

TEST(SkewStormTest, DatasetReportsTheSameSizesAsTheFreeFunction)
{
    SkewStormParams params;
    params.num_blocks = 30;
    params.items_per_block = 25;
    auto ds = makeSkewStorm(params);
    ASSERT_EQ(ds->numBlocks(), 30u);
    for (uint64_t b = 0; b < 30; ++b) {
        EXPECT_EQ(ds->itemsInBlock(b), skewStormItemsInBlock(params, b))
            << "block " << b;
    }
}

TEST(SkewStormTest, ItemAndReadItemsProduceIdenticalBytes)
{
    SkewStormParams params;
    params.num_blocks = 4;
    params.items_per_block = 30;
    auto ds = makeSkewStorm(params);
    for (uint64_t b = 0; b < 4; ++b) {
        uint64_t n = ds->itemsInBlock(b);
        std::vector<uint64_t> indices(n);
        for (uint64_t i = 0; i < n; ++i) {
            indices[i] = i;
        }
        hdfs::RecordBuffer buf;
        ds->readItems(b, indices.data(), indices.size(), buf);
        ASSERT_EQ(buf.size(), n) << "block " << b;
        for (uint64_t i = 0; i < n; ++i) {
            // item() must be stable across calls and byte-identical to
            // the bulk read path: the absorb oracle replays via item().
            EXPECT_EQ(ds->item(b, i), ds->item(b, i));
            EXPECT_EQ(std::string(buf.record(i)), ds->item(b, i))
                << "block " << b << " item " << i;
        }
    }
}

TEST(SkewStormTest, RecordsParseAsAccessLogEntries)
{
    SkewStormParams params;
    params.num_blocks = 6;
    params.items_per_block = 50;
    auto ds = makeSkewStorm(params);
    for (uint64_t b = 0; b < 6; ++b) {
        uint64_t n = ds->itemsInBlock(b);
        for (uint64_t i = 0; i < n; ++i) {
            std::string record = ds->item(b, i);
            AccessLogEntryView entry;
            ASSERT_TRUE(parseAccessLogEntry(record, entry))
                << "block " << b << " item " << i;
            EXPECT_EQ(entry.project.rfind("proj", 0), 0u);
            EXPECT_NE(entry.page.find("/page"), std::string_view::npos);
            EXPECT_NE(entry.page.find(entry.project), std::string_view::npos);
            EXPECT_GT(entry.bytes, 0u);
        }
    }
}

TEST(SkewStormTest, HotKeysConcentrateReducerLoad)
{
    SkewStormParams params;
    params.num_blocks = 40;
    params.items_per_block = 100;
    params.hot_key_prob = 0.35;
    params.hot_keys = 3;
    auto ds = makeSkewStorm(params);
    std::map<std::string, uint64_t> counts;
    uint64_t total = 0;
    for (uint64_t b = 0; b < 40; ++b) {
        uint64_t n = ds->itemsInBlock(b);
        for (uint64_t i = 0; i < n; ++i) {
            std::string record = ds->item(b, i);
            AccessLogEntryView entry;
            ASSERT_TRUE(parseAccessLogEntry(record, entry));
            ++counts[std::string(entry.project)];
            ++total;
        }
    }
    uint64_t hot = counts["proj0"] + counts["proj1"] + counts["proj2"];
    // The hot branch alone sends 35% of records to three projects; the
    // Zipf branch adds more. Well above any unskewed share.
    EXPECT_GT(static_cast<double>(hot) / total, 0.30);
    // But the tail still exists: many distinct projects for the
    // samplers to stratify over.
    EXPECT_GT(counts.size(), 50u);
}

TEST(SkewStormTest, SeedChangesTheDataDeterministically)
{
    SkewStormParams a;
    a.num_blocks = 3;
    a.items_per_block = 20;
    SkewStormParams b = a;
    b.seed = a.seed + 1;
    auto ds_a = makeSkewStorm(a);
    auto ds_a2 = makeSkewStorm(a);
    auto ds_b = makeSkewStorm(b);
    EXPECT_EQ(ds_a->item(0, 0), ds_a2->item(0, 0));
    EXPECT_NE(ds_a->item(0, 0), ds_b->item(0, 0));
}

}  // namespace
}  // namespace approxhadoop::workloads
