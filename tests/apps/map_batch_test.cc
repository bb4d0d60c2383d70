/**
 * @file
 * The batched-execution contract of every registry workload: a mapper
 * emits the same records however a task's records are split into
 * batches, and a dataset's readItems() serves bytes identical to
 * item(). Job::computeMapOutput hands a mapper up to 256 records per
 * mapBatch() call while the chaos oracle replays through map(), a batch
 * of one; the slice widths below (1, 5, whole block) also catch state a
 * mapper wrongly carries from one batch to the next. Any divergence
 * here is a determinism bug, not a perf tradeoff.
 */
#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "apps/aggregation_registry.h"
#include "common/random.h"
#include "hdfs/dataset.h"
#include "mapreduce/mapper.h"
#include "mapreduce/types.h"

namespace approxhadoop {
namespace {

struct WorkloadCase
{
    std::string name;
};

void
PrintTo(const WorkloadCase& c, std::ostream* os)
{
    *os << c.name;
}

class MapBatchEquivalence : public ::testing::TestWithParam<WorkloadCase>
{
};

constexpr uint64_t kBlocks = 4;
constexpr uint64_t kItems = 32;
constexpr uint64_t kSeed = 42;

mr::MapContext
freshContext(uint64_t task_id)
{
    return mr::MapContext(task_id, kItems, kItems, false,
                          Rng(kSeed).derive(0xA11CE + task_id));
}

/** Maps @p views in consecutive mapBatch() slices of @p width records. */
mr::MapContext
mapInSlices(const apps::AggregationWorkload& w, uint64_t block,
            const std::vector<std::string_view>& views, size_t width)
{
    auto mapper = w.mapper_factory()();
    mr::MapContext ctx = freshContext(block);
    mapper->setup(ctx);
    for (size_t pos = 0; pos < views.size(); pos += width) {
        mapper->mapBatch(views.data() + pos,
                         std::min(width, views.size() - pos), ctx);
    }
    mapper->cleanup(ctx);
    return ctx;
}

TEST_P(MapBatchEquivalence, BatchedOutputMatchesRecordAtATime)
{
    const apps::AggregationWorkload* w =
        apps::findAggregationWorkload(GetParam().name);
    ASSERT_NE(w, nullptr);
    auto data = w->make_dataset(kBlocks, kItems, kSeed);

    for (uint64_t block = 0; block < kBlocks; ++block) {
        // Record-at-a-time reference: the path the chaos oracle replays.
        auto ref_mapper = w->mapper_factory()();
        mr::MapContext ref_ctx = freshContext(block);
        ref_mapper->setup(ref_ctx);
        for (uint64_t i = 0; i < kItems; ++i) {
            ref_mapper->map(data->item(block, i), ref_ctx);
        }
        ref_mapper->cleanup(ref_ctx);
        const auto& ref = ref_ctx.output();

        // Batched paths over readItems() views, as Job::computeMapOutput
        // drives them.
        std::vector<uint64_t> indices(kItems);
        std::iota(indices.begin(), indices.end(), 0);
        hdfs::RecordBuffer buffer;
        data->readItems(block, indices.data(), indices.size(), buffer);
        std::vector<std::string_view> views;
        for (size_t i = 0; i < indices.size(); ++i) {
            views.push_back(buffer.record(i));
        }
        for (size_t width : {size_t{1}, size_t{5}, views.size()}) {
            SCOPED_TRACE(::testing::Message()
                         << "block " << block << " width " << width);
            mr::MapContext ctx = mapInSlices(*w, block, views, width);
            const auto& out = ctx.output();
            ASSERT_EQ(ref.size(), out.size());
            for (size_t i = 0; i < ref.size(); ++i) {
                EXPECT_EQ(ref[i].key, out[i].key) << "record " << i;
                EXPECT_EQ(ref[i].value, out[i].value) << "record " << i;
                EXPECT_EQ(ref[i].value2, out[i].value2) << "record " << i;
                EXPECT_EQ(ref[i].value3, out[i].value3) << "record " << i;
                EXPECT_EQ(ref[i].value4, out[i].value4) << "record " << i;
            }
        }
    }
}

TEST_P(MapBatchEquivalence, ReadItemsMatchesItem)
{
    const apps::AggregationWorkload* w =
        apps::findAggregationWorkload(GetParam().name);
    ASSERT_NE(w, nullptr);
    auto data = w->make_dataset(kBlocks, kItems, kSeed);

    for (uint64_t block = 0; block < kBlocks; ++block) {
        // Full block (whole-block synthesis + cache path).
        std::vector<uint64_t> all(kItems);
        std::iota(all.begin(), all.end(), 0);
        hdfs::RecordBuffer full;
        data->readItems(block, all.data(), all.size(), full);
        ASSERT_EQ(full.size(), kItems);
        for (uint64_t i = 0; i < kItems; ++i) {
            EXPECT_EQ(std::string(full.record(i)), data->item(block, i))
                << "block " << block << " index " << i;
        }

        // Sparse sample (lazy path), including out-of-order indices.
        std::vector<uint64_t> sparse = {kItems - 1, 0, kItems / 2};
        hdfs::RecordBuffer sampled;
        data->readItems(block, sparse.data(), sparse.size(), sampled);
        ASSERT_EQ(sampled.size(), sparse.size());
        for (size_t i = 0; i < sparse.size(); ++i) {
            EXPECT_EQ(std::string(sampled.record(i)),
                      data->item(block, sparse[i]))
                << "block " << block << " index " << sparse[i];
        }
    }
}

std::vector<WorkloadCase>
allWorkloads()
{
    std::vector<WorkloadCase> cases;
    for (const apps::AggregationWorkload& w : apps::aggregationWorkloads()) {
        cases.push_back(WorkloadCase{w.name});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistryWorkloads, MapBatchEquivalence,
    ::testing::ValuesIn(allWorkloads()),
    [](const ::testing::TestParamInfo<WorkloadCase>& info) {
        return info.param.name;
    });

// The default mapBatch (base-class loop) must also match, independent of
// any app override — covers mappers that never specialize the batch hook.
TEST(MapBatchDefault, BaseClassLoopMatchesMap)
{
    class EchoMapper : public mr::Mapper
    {
      public:
        void map(const std::string& record, mr::MapContext& ctx) override
        {
            ctx.write(record, static_cast<double>(record.size()));
        }
    };

    std::vector<std::string> records = {"a", "bb", "", "a", "ccc"};
    mr::MapContext ref_ctx(0, 5, 5, false, Rng(1));
    EchoMapper ref;
    for (const std::string& r : records) {
        ref.map(r, ref_ctx);
    }

    std::vector<std::string_view> views(records.begin(), records.end());
    mr::MapContext batch_ctx(0, 5, 5, false, Rng(1));
    EchoMapper batched;
    batched.mapBatch(views.data(), views.size(), batch_ctx);

    ASSERT_EQ(ref_ctx.output().size(), batch_ctx.output().size());
    for (size_t i = 0; i < ref_ctx.output().size(); ++i) {
        EXPECT_EQ(ref_ctx.output()[i].key, batch_ctx.output()[i].key);
        EXPECT_EQ(ref_ctx.output()[i].value, batch_ctx.output()[i].value);
    }
}

}  // namespace
}  // namespace approxhadoop
