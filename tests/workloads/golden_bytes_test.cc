/**
 * @file
 * Golden-byte pins for the per-record generators. Every record of the
 * first 8 blocks at default params is hashed with XXH64; the per-record
 * digests of a block, in index order, are folded into one pinned value.
 * Any change to a record byte, to the per-record RNG stream, or to the
 * engine behind Rng moves a pin. Both the per-item and the batched
 * synthesis paths are checked against the same pins.
 */
#include <array>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "hdfs/dataset.h"
#include "integrity/checksum.h"
#include "workloads/access_log.h"
#include "workloads/kmeans_data.h"
#include "workloads/skew_storm.h"
#include "workloads/webserver_log.h"
#include "workloads/wiki_dump.h"

namespace approxhadoop::workloads {
namespace {

constexpr uint64_t kPinnedBlocks = 8;
using BlockPins = std::array<uint64_t, kPinnedBlocks>;

uint64_t
foldRecordDigests(const std::vector<uint64_t>& digests)
{
    return integrity::hash64(digests.data(),
                             digests.size() * sizeof(uint64_t));
}

/** Per-block fold over item(), one record at a time. */
BlockPins
itemDigests(const hdfs::BlockDataset& ds)
{
    BlockPins pins{};
    for (uint64_t b = 0; b < kPinnedBlocks; ++b) {
        std::vector<uint64_t> digests;
        for (uint64_t i = 0; i < ds.itemsInBlock(b); ++i) {
            std::string record = ds.item(b, i);
            digests.push_back(
                integrity::hash64(record.data(), record.size()));
        }
        pins[b] = foldRecordDigests(digests);
    }
    return pins;
}

/** Per-block fold over one readItems() batch of the whole block. */
BlockPins
batchDigests(const hdfs::BlockDataset& ds)
{
    BlockPins pins{};
    for (uint64_t b = 0; b < kPinnedBlocks; ++b) {
        std::vector<uint64_t> indices(ds.itemsInBlock(b));
        std::iota(indices.begin(), indices.end(), 0);
        hdfs::RecordBuffer buf;
        ds.readItems(b, indices.data(), indices.size(), buf);
        std::vector<uint64_t> digests;
        for (size_t i = 0; i < buf.size(); ++i) {
            std::string_view record = buf.record(i);
            digests.push_back(
                integrity::hash64(record.data(), record.size()));
        }
        pins[b] = foldRecordDigests(digests);
    }
    return pins;
}

void
expectPinned(const hdfs::BlockDataset& ds, const BlockPins& expected)
{
    EXPECT_EQ(itemDigests(ds), expected);
    EXPECT_EQ(batchDigests(ds), expected);
}

TEST(GoldenBytesTest, AccessLog)
{
    constexpr BlockPins kPins = {
        0xa12c72582da4fb28ULL, 0x3ddd2680b5aad7fcULL,
        0xffee0489e0acce00ULL, 0xb834990b7d10226dULL,
        0x5f82c5a7dd505f80ULL, 0xa3aed93491f83a3eULL,
        0x4b5442b9ef8aa111ULL, 0x9830c73e4404e816ULL,
    };
    expectPinned(*makeAccessLog(AccessLogParams{}), kPins);
}

TEST(GoldenBytesTest, WikiDump)
{
    constexpr BlockPins kPins = {
        0x5fb9cdd2cb9b343cULL, 0x3374c3b9acaa3572ULL,
        0x6658baf7df182a8eULL, 0xcf1c9252b72cf4c6ULL,
        0x519e60cf5c9631dfULL, 0xb825390071d9748dULL,
        0x45176632b84cfd50ULL, 0xaba842055ea66bdfULL,
    };
    expectPinned(*makeWikiDump(WikiDumpParams{}), kPins);
}

TEST(GoldenBytesTest, WebServerLog)
{
    constexpr BlockPins kPins = {
        0x2c7c625329e1188dULL, 0xee5c9ebaaa9e9a6dULL,
        0x4cb0a325e6b12b76ULL, 0x266d727973261eb1ULL,
        0xf5a10fde34465706ULL, 0xc096f6c4491ae360ULL,
        0x5b8c7e84856086beULL, 0x2593ed61e1de19c4ULL,
    };
    expectPinned(*makeWebServerLog(WebServerLogParams{}), kPins);
}

TEST(GoldenBytesTest, SkewStorm)
{
    constexpr BlockPins kPins = {
        0xaf4d924154e4a895ULL, 0x742c31c1ddfb9e7cULL,
        0xd47ab999cf652a68ULL, 0xb10145944d206390ULL,
        0xae33adc294aa56c4ULL, 0x295eb6ffc5e52577ULL,
        0x71a86556ae460890ULL, 0xebcc38d0c6b8d3bbULL,
    };
    expectPinned(*makeSkewStorm(SkewStormParams{}), kPins);
}

TEST(GoldenBytesTest, KMeansData)
{
    constexpr BlockPins kPins = {
        0x0a4db1eb5fb2b339ULL, 0x361f463629043754ULL,
        0x1bc8792fb2c8111cULL, 0x4e3afe78d8ea4ad8ULL,
        0x881bae31ba6aeeb3ULL, 0xc5472b2692c28ad5ULL,
        0xcb7313432e3d86f2ULL, 0xd4649ee115a04cd5ULL,
    };
    expectPinned(*makeKMeansData(KMeansDataParams{}), kPins);
}

}  // namespace
}  // namespace approxhadoop::workloads
