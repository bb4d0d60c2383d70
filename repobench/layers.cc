#include "layers.h"

#include <utility>

namespace repobench {

namespace hdfs = approxhadoop::hdfs;
namespace journal = approxhadoop::journal;
namespace mr = approxhadoop::mr;

// --- hdfs ------------------------------------------------------------------

TracedDataset::TracedDataset(const hdfs::BlockDataset& inner, Tracer& tracer,
                             LayerCounts& counts)
    : inner_(inner), tracer_(tracer), counts_(counts)
{
}

uint64_t
TracedDataset::numBlocks() const
{
    return inner_.numBlocks();
}

uint64_t
TracedDataset::itemsInBlock(uint64_t block) const
{
    return inner_.itemsInBlock(block);
}

std::string
TracedDataset::item(uint64_t block, uint64_t index) const
{
    ScopedSpan span(tracer_, "hdfs.item");
    std::string record = inner_.item(block, index);
    counts_.records_read.fetch_add(1);
    counts_.bytes_read.fetch_add(record.size());
    return record;
}

void
TracedDataset::readItems(uint64_t block, const uint64_t* indices,
                         size_t count, hdfs::RecordBuffer& out) const
{
    ScopedSpan span(tracer_, "hdfs.read");
    size_t before = out.payloadBytes();
    inner_.readItems(block, indices, count, out);
    counts_.records_read.fetch_add(count);
    counts_.bytes_read.fetch_add(out.payloadBytes() - before);
}

uint64_t
TracedDataset::bytesPerItem() const
{
    return inner_.bytesPerItem();
}

// --- apps / exec -----------------------------------------------------------

TracedMapper::TracedMapper(std::unique_ptr<mr::Mapper> inner, Tracer& tracer,
                           LayerCounts& counts)
    : inner_(std::move(inner)), tracer_(tracer), counts_(counts)
{
}

TracedMapper::~TracedMapper()
{
    // Only reached with the span open when the task threw between
    // setup() and cleanup(); the job then fails and is reported as such.
    if (task_span_ != 0) {
        try {
            tracer_.close(task_span_);
        } catch (const std::logic_error&) {
        }
    }
}

void
TracedMapper::setup(mr::MapContext& ctx)
{
    task_span_ = tracer_.open("exec.task");
    ScopedSpan span(tracer_, "apps.setup");
    inner_->setup(ctx);
}

void
TracedMapper::map(const std::string& record, mr::MapContext& ctx)
{
    ScopedSpan span(tracer_, "apps.map");
    inner_->map(record, ctx);
}

void
TracedMapper::mapBatch(const std::string_view* records, size_t count,
                       mr::MapContext& ctx)
{
    ScopedSpan span(tracer_, "apps.map_batch");
    inner_->mapBatch(records, count, ctx);
}

void
TracedMapper::cleanup(mr::MapContext& ctx)
{
    {
        ScopedSpan span(tracer_, "apps.cleanup");
        inner_->cleanup(ctx);
    }
    counts_.records_emitted.fetch_add(ctx.output().size());
    tracer_.close(task_span_);
    task_span_ = 0;
}

// --- reduce ----------------------------------------------------------------

TracedReducer::TracedReducer(std::unique_ptr<mr::Reducer> inner,
                             Tracer& tracer, LayerCounts& counts)
    : inner_(std::move(inner)), tracer_(tracer), counts_(counts)
{
}

void
TracedReducer::consume(const mr::MapOutputChunk& chunk)
{
    {
        ScopedSpan span(tracer_, "reduce.consume");
        inner_->consume(chunk);
    }
    // The copy is the trace's own cost; its span keeps it out of the
    // job's self time.
    ScopedSpan span(tracer_, "trace.copy");
    counts_.chunks.push_back(chunk);
}

void
TracedReducer::finalize(mr::ReduceContext& ctx)
{
    ScopedSpan span(tracer_, "reduce.finalize");
    inner_->finalize(ctx);
}

bool
TracedReducer::checkpoint(std::string& state) const
{
    ScopedSpan span(tracer_, "reduce.checkpoint");
    bool ok = inner_->checkpoint(state);
    if (ok) {
        counts_.checkpoint_bytes += state.size();
    }
    return ok;
}

bool
TracedReducer::restore(const std::string& state)
{
    ScopedSpan span(tracer_, "reduce.restore");
    return inner_->restore(state);
}

// --- core ------------------------------------------------------------------

TracedController::TracedController(mr::JobController& inner, Tracer& tracer,
                                   LayerCounts& counts)
    : inner_(inner), tracer_(tracer), counts_(counts)
{
}

void
TracedController::onJobStart(mr::JobHandle& job)
{
    ScopedSpan span(tracer_, "core.on_job_start");
    ++counts_.controller_calls;
    inner_.onJobStart(job);
}

void
TracedController::onMapComplete(mr::JobHandle& job,
                                const mr::MapTaskInfo& task)
{
    ScopedSpan span(tracer_, "core.on_map_complete");
    ++counts_.controller_calls;
    inner_.onMapComplete(job, task);
}

void
TracedController::onWaveComplete(mr::JobHandle& job, int wave)
{
    ScopedSpan span(tracer_, "core.on_wave_complete");
    ++counts_.controller_calls;
    inner_.onWaveComplete(job, wave);
}

mr::FailureAction
TracedController::onMapFailure(mr::JobHandle& job, const mr::MapTaskInfo& task,
                               uint32_t failed_attempts)
{
    ScopedSpan span(tracer_, "core.on_map_failure");
    ++counts_.controller_calls;
    return inner_.onMapFailure(job, task, failed_attempts);
}

void
TracedController::onMapPhaseDone(mr::JobHandle& job)
{
    ScopedSpan span(tracer_, "core.on_map_phase_done");
    ++counts_.controller_calls;
    inner_.onMapPhaseDone(job);
}

std::string
TracedController::journalState() const
{
    ScopedSpan span(tracer_, "core.journal_state");
    ++counts_.controller_calls;
    return inner_.journalState();
}

// --- journal ---------------------------------------------------------------

TracedEpochSink::TracedEpochSink(journal::EpochSink& inner, Tracer& tracer,
                                 LayerCounts& counts)
    : inner_(inner), tracer_(tracer), counts_(counts)
{
}

void
TracedEpochSink::onEpoch(const journal::Epoch& epoch)
{
    ScopedSpan span(tracer_, "journal.seal");
    ++counts_.epochs;
    inner_.onEpoch(epoch);
}

// --- factories -------------------------------------------------------------

mr::Job::MapperFactory
tracedMappers(mr::Job::MapperFactory inner, Tracer& tracer,
              LayerCounts& counts)
{
    return [inner = std::move(inner), &tracer, &counts]() {
        return std::make_unique<TracedMapper>(inner(), tracer, counts);
    };
}

mr::Job::ReducerFactory
tracedReducers(mr::Job::ReducerFactory inner, Tracer& tracer,
               LayerCounts& counts)
{
    return [inner = std::move(inner), &tracer, &counts]() {
        return std::make_unique<TracedReducer>(inner(), tracer, counts);
    };
}

}  // namespace repobench
