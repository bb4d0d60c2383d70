#include "mapreduce/reducer.h"

#include <bit>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "integrity/checksum.h"

namespace approxhadoop::mr {
namespace {

MapOutputChunk
chunk(uint64_t task, std::vector<KeyValue> records)
{
    MapOutputChunk c;
    c.map_task = task;
    c.items_total = 10;
    c.items_processed = 10;
    c.records = std::move(records);
    return c;
}

TEST(SumReducerTest, SumsPerKey)
{
    PreciseReducer r(PreciseReducer::Op::kSum);
    r.consume(chunk(0, {{"a", 1.0, 0, 0, 0}, {"b", 2.0, 0, 0, 0}}));
    r.consume(chunk(1, {{"a", 3.0, 0, 0, 0}}));
    ReduceContext ctx(2, 20);
    r.finalize(ctx);
    ASSERT_EQ(ctx.output().size(), 2u);
    EXPECT_EQ(ctx.output()[0].key, "a");
    EXPECT_DOUBLE_EQ(ctx.output()[0].value, 4.0);
    EXPECT_EQ(ctx.output()[1].key, "b");
    EXPECT_DOUBLE_EQ(ctx.output()[1].value, 2.0);
    EXPECT_FALSE(ctx.output()[0].has_bound);
}

TEST(AverageReducerTest, Averages)
{
    PreciseReducer r(PreciseReducer::Op::kAverage);
    r.consume(chunk(0, {{"x", 2.0, 0, 0, 0}, {"x", 4.0, 0, 0, 0}}));
    ReduceContext ctx(1, 10);
    r.finalize(ctx);
    EXPECT_DOUBLE_EQ(ctx.output()[0].value, 3.0);
}

TEST(MinReducerTest, Extremes)
{
    PreciseReducer r(PreciseReducer::Op::kMin);
    r.consume(chunk(0, {{"x", 5.0, 0, 0, 0},
                        {"x", -2.0, 0, 0, 0},
                        {"x", 9.0, 0, 0, 0}}));
    ReduceContext ctx(1, 10);
    r.finalize(ctx);
    EXPECT_DOUBLE_EQ(ctx.output()[0].value, -2.0);
}

TEST(PreciseReducerTest, SumFoldsInDeliveryOrder)
{
    // 1e16 + 1.0 rounds back to 1e16, so only the delivery order
    // (1e16, 1.0, -1e16) yields exactly 0.0; any regrouping of the
    // values would leave a nonzero sum.
    PreciseReducer r(PreciseReducer::Op::kSum);
    r.consume(chunk(0, {{"a", 1e16, 0, 0, 0}}));
    r.consume(chunk(1, {{"a", 1.0, 0, 0, 0}}));
    r.consume(chunk(2, {{"a", -1e16, 0, 0, 0}}));
    ReduceContext ctx(3, 30);
    r.finalize(ctx);
    ASSERT_EQ(ctx.output().size(), 1u);
    EXPECT_EQ(ctx.output()[0].value, 0.0);
}

TEST(PreciseReducerTest, CheckpointSizeIsPerKeyNotPerRecord)
{
    auto fed = [](uint64_t records) {
        PreciseReducer r(PreciseReducer::Op::kSum);
        for (uint64_t i = 0; i < records; ++i) {
            std::string key(1, static_cast<char>('a' + i % 3));
            r.consume(chunk(i, {{key, 1.0, 0, 0, 0}}));
        }
        std::string blob;
        EXPECT_TRUE(r.checkpoint(blob));
        return blob.size();
    };
    EXPECT_EQ(fed(3), fed(10000));
}

/** Non-integer values whose sums depend on the order they are added. */
std::vector<MapOutputChunk>
stream()
{
    std::vector<MapOutputChunk> chunks;
    for (uint64_t t = 0; t < 12; ++t) {
        std::vector<KeyValue> recs;
        for (uint64_t i = 0; i < 7; ++i) {
            double v = 0.1 * static_cast<double>((t * 7 + i) % 11) - 0.37 +
                       1e-3 * static_cast<double>(t * t);
            recs.push_back({"k" + std::to_string((t + i) % 4), v, 0, 0, 0});
        }
        chunks.push_back(chunk(t, std::move(recs)));
    }
    return chunks;
}

TEST(PreciseReducerTest, MidStreamRestoreContinuesBitIdentically)
{
    for (PreciseReducer::Op op :
         {PreciseReducer::Op::kSum, PreciseReducer::Op::kAverage,
          PreciseReducer::Op::kMin}) {
        std::vector<MapOutputChunk> chunks = stream();
        PreciseReducer whole(op);
        for (const MapOutputChunk& c : chunks) {
            whole.consume(c);
        }

        PreciseReducer first(op);
        for (size_t i = 0; i < 5; ++i) {
            first.consume(chunks[i]);
        }
        std::string blob;
        ASSERT_TRUE(first.checkpoint(blob));
        PreciseReducer resumed(op);
        ASSERT_TRUE(resumed.restore(blob));
        for (size_t i = 5; i < chunks.size(); ++i) {
            resumed.consume(chunks[i]);
        }

        ReduceContext want(12, 120);
        ReduceContext got(12, 120);
        whole.finalize(want);
        resumed.finalize(got);
        ASSERT_EQ(want.output().size(), 4u);
        ASSERT_EQ(got.output().size(), want.output().size());
        for (size_t k = 0; k < want.output().size(); ++k) {
            EXPECT_EQ(got.output()[k].key, want.output()[k].key);
            EXPECT_EQ(std::bit_cast<uint64_t>(got.output()[k].value),
                      std::bit_cast<uint64_t>(want.output()[k].value))
                << want.output()[k].key;
        }
    }
}

TEST(PreciseReducerTest, TruncatedCheckpointThrows)
{
    PreciseReducer r(PreciseReducer::Op::kAverage);
    r.consume(chunk(0, {{"a", 1.5, 0, 0, 0}, {"b", 2.5, 0, 0, 0}}));
    std::string blob;
    ASSERT_TRUE(r.checkpoint(blob));
    PreciseReducer fresh(PreciseReducer::Op::kAverage);
    EXPECT_THROW(fresh.restore(blob.substr(0, blob.size() - 1)),
                 std::runtime_error);
}

TEST(PreciseReducerTest, CheckpointBlobIsPinned)
{
    // Golden XXH64 of checkpoint blobs: keys are serialized in key
    // order whatever the delivery order, and a restored reducer that
    // learns a key sorting between two known ones places it in order.
    PreciseReducer r(PreciseReducer::Op::kAverage);
    r.consume(chunk(0, {{"b", 1.25, 0, 0, 0}, {"a", -0.5, 0, 0, 0}}));
    r.consume(chunk(1, {{"c", 3.0, 0, 0, 0}, {"b", 0.1, 0, 0, 0}}));
    std::string blob;
    ASSERT_TRUE(r.checkpoint(blob));
    EXPECT_EQ(integrity::hash64(blob.data(), blob.size()),
              0x08EC679C25B60D8DULL);

    PreciseReducer resumed(PreciseReducer::Op::kAverage);
    ASSERT_TRUE(resumed.restore(blob));
    resumed.consume(chunk(2, {{"bb", 7.0, 0, 0, 0}, {"a", 2.0, 0, 0, 0}}));
    std::string blob2;
    ASSERT_TRUE(resumed.checkpoint(blob2));
    EXPECT_EQ(integrity::hash64(blob2.data(), blob2.size()),
              0xDADC9848C8C3B90FULL);

    ReduceContext ctx(3, 30);
    resumed.finalize(ctx);
    std::vector<std::string> keys;
    for (const OutputRecord& rec : ctx.output()) {
        keys.push_back(rec.key);
    }
    EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "bb", "c"}));
    EXPECT_EQ(ctx.output()[0].value, 0.75);
}

TEST(ReduceContextTest, BoundedWrite)
{
    ReduceContext ctx(4, 40);
    ctx.write("k", 10.0, 8.0, 13.0);
    ASSERT_EQ(ctx.output().size(), 1u);
    const OutputRecord& r = ctx.output()[0];
    EXPECT_TRUE(r.has_bound);
    EXPECT_DOUBLE_EQ(r.errorBound(), 3.0);
    EXPECT_NEAR(r.relativeError(), 0.3, 1e-12);
    EXPECT_EQ(ctx.totalMapTasks(), 4u);
    EXPECT_EQ(ctx.totalItems(), 40u);
}

TEST(OutputRecordTest, PreciseRecordHasZeroError)
{
    OutputRecord r;
    r.key = "k";
    r.value = 5.0;
    EXPECT_EQ(r.errorBound(), 0.0);
    EXPECT_EQ(r.relativeError(), 0.0);
}

}  // namespace
}  // namespace approxhadoop::mr
