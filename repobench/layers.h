#ifndef REPOBENCH_LAYERS_H_
#define REPOBENCH_LAYERS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hdfs/dataset.h"
#include "journal/sink.h"
#include "mapreduce/controller.h"
#include "mapreduce/job.h"
#include "mapreduce/mapper.h"
#include "mapreduce/reducer.h"
#include "trace.h"

/**
 * @file
 * Decorators over the public interface of each layer. Each one forwards
 * every call unchanged to the object it wraps and records a span and a
 * count around it; none of them alters an argument or a result, so a
 * job assembled from decorated parts computes exactly what the
 * undecorated job computes (the benchmark checks this on every traced
 * job).
 */
namespace repobench {

/** Counts recorded at the layer boundaries of one traced job. */
struct LayerCounts
{
    std::atomic<uint64_t> records_read{0};
    std::atomic<uint64_t> bytes_read{0};
    std::atomic<uint64_t> records_emitted{0};
    uint64_t controller_calls = 0;
    uint64_t epochs = 0;
    uint64_t checkpoint_bytes = 0;
    /** Size of the journal image when the job completed. */
    uint64_t journal_bytes = 0;
    /** Block-cache bytes of the job's dataset when the job completed. */
    uint64_t cached_bytes = 0;
    /** Copies of every chunk the reducers consumed, in delivery order
     *  (driver thread only), for the integrity/interning replay. */
    std::vector<approxhadoop::mr::MapOutputChunk> chunks;
};

/** hdfs layer: BlockDataset decorator over item()/readItems(). */
class TracedDataset : public approxhadoop::hdfs::BlockDataset
{
  public:
    TracedDataset(const approxhadoop::hdfs::BlockDataset& inner,
                  Tracer& tracer, LayerCounts& counts);

    uint64_t numBlocks() const override;
    uint64_t itemsInBlock(uint64_t block) const override;
    std::string item(uint64_t block, uint64_t index) const override;
    void readItems(uint64_t block, const uint64_t* indices, size_t count,
                   approxhadoop::hdfs::RecordBuffer& out) const override;
    uint64_t bytesPerItem() const override;

  private:
    const approxhadoop::hdfs::BlockDataset& inner_;
    Tracer& tracer_;
    LayerCounts& counts_;
};

/**
 * apps layer: Mapper decorator. Also records the map task as an
 * `exec.task` span from setup() to cleanup(), which is what the
 * executor's worker-busy share is computed from.
 */
class TracedMapper : public approxhadoop::mr::Mapper
{
  public:
    TracedMapper(std::unique_ptr<approxhadoop::mr::Mapper> inner,
                 Tracer& tracer, LayerCounts& counts);
    ~TracedMapper() override;

    void setup(approxhadoop::mr::MapContext& ctx) override;
    void map(const std::string& record,
             approxhadoop::mr::MapContext& ctx) override;
    void mapBatch(const std::string_view* records, size_t count,
                  approxhadoop::mr::MapContext& ctx) override;
    void cleanup(approxhadoop::mr::MapContext& ctx) override;

  private:
    std::unique_ptr<approxhadoop::mr::Mapper> inner_;
    Tracer& tracer_;
    LayerCounts& counts_;
    /** The open exec.task span (0 when none). */
    uint32_t task_span_ = 0;
};

/** reduce layer: Reducer decorator over consume/finalize/checkpoint/
 *  restore. Keeps a copy of each consumed chunk for the replay. */
class TracedReducer : public approxhadoop::mr::Reducer
{
  public:
    TracedReducer(std::unique_ptr<approxhadoop::mr::Reducer> inner,
                  Tracer& tracer, LayerCounts& counts);

    void consume(const approxhadoop::mr::MapOutputChunk& chunk) override;
    void finalize(approxhadoop::mr::ReduceContext& ctx) override;
    bool checkpoint(std::string& state) const override;
    bool restore(const std::string& state) override;

  private:
    std::unique_ptr<approxhadoop::mr::Reducer> inner_;
    Tracer& tracer_;
    LayerCounts& counts_;
};

/** core layer: JobController decorator over every callback. */
class TracedController : public approxhadoop::mr::JobController
{
  public:
    TracedController(approxhadoop::mr::JobController& inner, Tracer& tracer,
                     LayerCounts& counts);

    void onJobStart(approxhadoop::mr::JobHandle& job) override;
    void onMapComplete(approxhadoop::mr::JobHandle& job,
                       const approxhadoop::mr::MapTaskInfo& task) override;
    void onWaveComplete(approxhadoop::mr::JobHandle& job, int wave) override;
    approxhadoop::mr::FailureAction
    onMapFailure(approxhadoop::mr::JobHandle& job,
                 const approxhadoop::mr::MapTaskInfo& task,
                 uint32_t failed_attempts) override;
    void onMapPhaseDone(approxhadoop::mr::JobHandle& job) override;
    std::string journalState() const override;

  private:
    approxhadoop::mr::JobController& inner_;
    Tracer& tracer_;
    LayerCounts& counts_;
};

/** journal layer: EpochSink decorator (wraps a JobJournal). */
class TracedEpochSink : public approxhadoop::journal::EpochSink
{
  public:
    TracedEpochSink(approxhadoop::journal::EpochSink& inner, Tracer& tracer,
                    LayerCounts& counts);

    void onEpoch(const approxhadoop::journal::Epoch& epoch) override;

  private:
    approxhadoop::journal::EpochSink& inner_;
    Tracer& tracer_;
    LayerCounts& counts_;
};

/** Wraps each mapper the factory makes in a TracedMapper. */
approxhadoop::mr::Job::MapperFactory
tracedMappers(approxhadoop::mr::Job::MapperFactory inner, Tracer& tracer,
              LayerCounts& counts);

/** Wraps each reducer the factory makes in a TracedReducer. */
approxhadoop::mr::Job::ReducerFactory
tracedReducers(approxhadoop::mr::Job::ReducerFactory inner, Tracer& tracer,
               LayerCounts& counts);

}  // namespace repobench

#endif  // REPOBENCH_LAYERS_H_
