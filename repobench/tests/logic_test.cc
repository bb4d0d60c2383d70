/**
 * Tests of the benchmark's own logic: span self-time arithmetic, the
 * tail-percentile rule, and decorators that forward byte-identically.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <thread>

#include "apps/aggregation_registry.h"
#include "calibrate.h"
#include "jobs.h"
#include "layers.h"
#include "mapreduce/reducer.h"
#include "trace.h"

namespace mr = approxhadoop::mr;
namespace hdfs = approxhadoop::hdfs;
using namespace repobench;

namespace {

Span
span(uint32_t id, uint32_t parent, uint32_t thread, int64_t start,
     int64_t end, const char* name = "x")
{
    Span s;
    s.id = id;
    s.parent = parent;
    s.thread = thread;
    s.start_ns = start;
    s.end_ns = end;
    s.name = name;
    return s;
}

}  // namespace

TEST(SelfTime, SubtractsSameThreadChildrenOnly)
{
    std::vector<Span> spans = {
        span(1, 0, 0, 0, 100, "job"),
        span(2, 1, 0, 10, 30, "a"),
        span(3, 1, 0, 40, 70, "b"),
        span(4, 3, 0, 45, 50, "a"),
        span(5, 1, 1, 20, 90, "worker"),  // concurrent, other thread
    };
    std::vector<int64_t> self = selfTimes(spans);
    EXPECT_EQ(self, (std::vector<int64_t>{50, 20, 25, 5, 70}));

    // The driver thread's self times add up to the root span.
    int64_t driver = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
        driver += spans[i].thread == 0 ? self[i] : 0;
    }
    EXPECT_EQ(driver, 100);
}

TEST(SelfTime, OverlappingChildrenCountOnceAndAreClipped)
{
    std::vector<Span> spans = {
        span(1, 0, 0, 0, 100),
        span(2, 1, 0, 10, 30),
        span(3, 1, 0, 20, 40),
        span(4, 1, 0, 90, 120),  // runs past its parent's end
    };
    EXPECT_EQ(selfTimes(spans)[0], 100 - 30 - 10);
}

TEST(Tail, HighestPercentileWithTenSamplesBeyond)
{
    std::vector<double> v(100);
    std::iota(v.begin(), v.end(), 1.0);
    std::reverse(v.begin(), v.end());
    Tail t = tailOf(v);
    EXPECT_EQ(t.value, 90.0);
    EXPECT_DOUBLE_EQ(t.percentile, 90.0);
    EXPECT_EQ(t.samples, 100u);

    std::vector<double> thousand(1000);
    std::iota(thousand.begin(), thousand.end(), 1.0);
    t = tailOf(thousand);
    EXPECT_EQ(t.value, 990.0);
    EXPECT_DOUBLE_EQ(t.percentile, 99.0);

    std::vector<double> eleven(11);
    std::iota(eleven.begin(), eleven.end(), 1.0);
    t = tailOf(eleven);
    EXPECT_EQ(t.value, 1.0);  // the only sample with ten beyond it
    EXPECT_NEAR(t.percentile, 100.0 / 11.0, 1e-12);
}

TEST(Tail, FallsBackToTheMedianWithTenSamplesOrFewer)
{
    Tail t = tailOf({5.0, 1.0, 3.0, 2.0});
    EXPECT_EQ(t.value, 2.5);
    EXPECT_EQ(t.percentile, 50.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Calibration, TrimmedMeanDropsATenthEachSideAndAtLeastOne)
{
    EXPECT_EQ(trimmedMean({4.0}), 4.0);
    EXPECT_EQ(trimmedMean({1.0, 3.0}), 2.0);
    EXPECT_EQ(trimmedMean({100.0, 2.0, 1.0, 3.0}), 2.5);
    std::vector<double> twenty(20, 10.0);
    twenty[0] = 0.0;
    twenty[1] = 0.0;
    twenty[18] = 1000.0;
    twenty[19] = 1000.0;
    EXPECT_EQ(trimmedMean(twenty), 10.0);
}

TEST(Calibration, ScalesToTheReferenceByTheTrimmedMeanPass)
{
    HostCalibration cal(1);
    // 20 passes: 18 at 40 ms around one preemption spike and one outlier.
    cal.record(900.0);
    cal.record(1.0);
    for (int i = 0; i < 18; ++i) {
        cal.record(40.0);
    }
    EXPECT_EQ(cal.samples(), 20u);
    EXPECT_EQ(cal.totalMs(), 901.0 + 18 * 40.0);
    EXPECT_EQ(cal.typicalMs(), 40.0);
    EXPECT_EQ(cal.scale(), HostCalibration::kReferenceMs / 40.0);
}

TEST(Calibration, KernelDoesFixedWorkOnEveryThread)
{
    HostCalibration one(1);
    HostCalibration three(3);
    EXPECT_EQ(three.checksum(), 3 * one.checksum());
    for (HostCalibration* cal : {&one, &three}) {
        uint64_t digest = cal->checksum();
        cal->measure();
        cal->measure();
        EXPECT_EQ(cal->checksum(), digest);
        EXPECT_EQ(cal->samples(), 2u);
        EXPECT_GT(cal->scale(), 0.0);
    }
}

TEST(Tracer, ParentsFollowTheThreadStackAndTheAnchor)
{
    Tracer tracer;
    tracer.setContext(7, 0);
    uint32_t root = tracer.open("job");
    {
        ScopedSpan child(tracer, "mapreduce.run");
        tracer.setContext(7, child.id());
        std::thread worker([&tracer] {
            ScopedSpan task(tracer, "exec.task");
        });
        worker.join();
    }
    tracer.close(root);
    std::vector<Span> spans = tracer.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].parent, 0u);
    EXPECT_EQ(spans[1].parent, root);
    EXPECT_EQ(spans[2].parent, spans[1].id);  // anchored across threads
    EXPECT_NE(spans[2].thread, spans[0].thread);
    for (const Span& s : spans) {
        EXPECT_EQ(s.job, 7u);
        EXPECT_LE(s.start_ns, s.end_ns);
    }
    uint32_t a = tracer.open("a");
    uint32_t b = tracer.open("b");
    EXPECT_THROW(tracer.close(a), std::logic_error);
    tracer.close(b);
    tracer.close(a);
}

TEST(Decorators, DatasetForwardsBytesAndCounts)
{
    const auto* app = approxhadoop::apps::findAggregationWorkload("projectpop");
    ASSERT_NE(app, nullptr);
    auto data = app->make_dataset(4, 50, 11);
    Tracer tracer;
    LayerCounts counts;
    TracedDataset traced(*data, tracer, counts);
    EXPECT_EQ(traced.numBlocks(), data->numBlocks());
    EXPECT_EQ(traced.itemsInBlock(2), data->itemsInBlock(2));
    EXPECT_EQ(traced.bytesPerItem(), data->bytesPerItem());
    std::vector<uint64_t> all(50);
    std::iota(all.begin(), all.end(), 0);
    hdfs::RecordBuffer direct;
    hdfs::RecordBuffer through;
    data->readItems(1, all.data(), all.size(), direct);
    traced.readItems(1, all.data(), all.size(), through);
    EXPECT_EQ(through.bytes(), direct.bytes());
    EXPECT_EQ(traced.item(3, 17), data->item(3, 17));
    EXPECT_EQ(counts.records_read.load(), 51u);
    EXPECT_EQ(counts.bytes_read.load(),
              direct.payloadBytes() + data->item(3, 17).size());
}

TEST(Decorators, MapperAndReducerForwardByteIdentically)
{
    const auto* app = approxhadoop::apps::findAggregationWorkload("projectpop");
    ASSERT_NE(app, nullptr);
    auto data = app->make_dataset(2, 40, 5);
    std::vector<uint64_t> all(40);
    std::iota(all.begin(), all.end(), 0);
    hdfs::RecordBuffer records;
    data->readItems(0, all.data(), all.size(), records);
    std::vector<std::string_view> views;
    for (size_t i = 0; i < records.size(); ++i) {
        views.push_back(records.record(i));
    }

    Tracer tracer;
    LayerCounts counts;
    auto runMapper = [&](std::unique_ptr<mr::Mapper> mapper) {
        mr::MapContext ctx(0, 40, 40, false, approxhadoop::Rng(1));
        mapper->setup(ctx);
        mapper->mapBatch(views.data(), views.size(), ctx);
        mapper->map(std::string(views[0]), ctx);
        mapper->cleanup(ctx);
        return ctx.output();
    };
    std::vector<mr::KeyValue> plain = runMapper(app->mapper_factory()());
    std::vector<mr::KeyValue> traced = runMapper(
        tracedMappers(app->mapper_factory(), tracer, counts)());
    ASSERT_EQ(plain.size(), traced.size());
    for (size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i].key, traced[i].key);
        EXPECT_EQ(plain[i].value, traced[i].value);
    }
    EXPECT_EQ(counts.records_emitted.load(), traced.size());

    mr::MapOutputChunk chunk;
    chunk.map_task = 0;
    chunk.items_total = 40;
    chunk.items_processed = 40;
    chunk.records = plain;
    auto reduce = [&](std::unique_ptr<mr::Reducer> reducer) {
        std::string state;
        reducer->consume(chunk);
        EXPECT_TRUE(reducer->checkpoint(state));
        reducer->consume(chunk);
        EXPECT_TRUE(reducer->restore(state));
        reducer->consume(chunk);
        mr::ReduceContext ctx(1, 40);
        reducer->finalize(ctx);
        return ctx.output();
    };
    auto a = reduce(app->precise_reducer_factory()());
    auto b = reduce(
        tracedReducers(app->precise_reducer_factory(), tracer, counts)());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].key, b[i].key);
        EXPECT_EQ(a[i].value, b[i].value);
    }
    EXPECT_EQ(counts.chunks.size(), 3u);
    EXPECT_GT(counts.checkpoint_bytes, 0u);
}

/** Every workload's traced assembly reproduces the untraced job, and the
 *  output checks accept it. Uses the benchmark's full input shape. */
TEST(Workloads, TracedJobsEqualUntracedJobs)
{
    Fixture fixture = setUp(3);
    ASSERT_EQ(fixture.top_keys.size(), kCoverageKeys);
    for (const WorkloadSpec& spec : workloadSpecs()) {
        SCOPED_TRACE(spec.name);
        const uint64_t seed = mixSeed(3, 1000);
        mr::JobResult plain = runJob(spec, fixture, seed);
        EXPECT_EQ(checkOutput(spec, fixture, plain), "");
        Tracer tracer;
        LayerCounts counts;
        mr::JobResult traced =
            runTracedJob(spec, fixture, seed, 0, tracer, counts);
        EXPECT_EQ(fingerprint(traced), fingerprint(plain));
        EXPECT_TRUE(replayChunks(counts.chunks, 0, tracer).verified);

        std::vector<Span> spans = tracer.spans();
        auto has = [&spans](const std::string& name) {
            return std::any_of(spans.begin(), spans.end(),
                               [&name](const Span& s) { return s.name == name; });
        };
        EXPECT_TRUE(has("hdfs.read"));
        EXPECT_TRUE(has("apps.map_batch"));
        EXPECT_TRUE(has("reduce.consume"));
        EXPECT_EQ(has("core.on_map_complete"), spec.kind == Kind::kWarmTarget);
        EXPECT_EQ(has("journal.resume"), spec.kind == Kind::kJournalRecovery);
        EXPECT_EQ(has("reduce.checkpoint"),
                  spec.kind == Kind::kJournalRecovery);
        EXPECT_EQ(counts.journal_bytes > 0,
                  spec.kind == Kind::kJournalRecovery);

        Accuracy acc = accuracyOf(fixture, plain);
        EXPECT_EQ(acc.intervals, kCoverageKeys);
        if (spec.kind == Kind::kWarmTarget) {
            EXPECT_GT(acc.rel_halfwidth, 0.0);
        } else {
            EXPECT_EQ(acc.covered, kCoverageKeys);
            EXPECT_EQ(acc.rel_halfwidth, 0.0);
        }
    }
}

TEST(Checks, RejectWrongOutputs)
{
    Fixture fixture = setUp(4);
    const WorkloadSpec& precise = *findWorkload("warm-precise");
    const WorkloadSpec& target = *findWorkload("warm-target");
    mr::JobResult result;
    result.output = fixture.reference.output;
    EXPECT_EQ(checkOutput(precise, fixture, result), "");
    result.output[0].value += 1.0;
    EXPECT_NE(checkOutput(precise, fixture, result), "");

    mr::JobResult approx;
    approx.output.push_back(mr::OutputRecord{"k", 10.0, true, 11.0, 12.0});
    EXPECT_NE(checkOutput(target, fixture, approx), "");
    approx.output[0].lower = 9.0;
    EXPECT_EQ(checkOutput(target, fixture, approx), "");
    EXPECT_NE(checkOutput(target, fixture, mr::JobResult{}), "");
}
