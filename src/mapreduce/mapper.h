#ifndef APPROXHADOOP_MAPREDUCE_MAPPER_H_
#define APPROXHADOOP_MAPREDUCE_MAPPER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/random.h"
#include "mapreduce/types.h"

namespace approxhadoop::mr {

/**
 * Per-task context handed to map functions.
 *
 * Collects emitted intermediate records and exposes the task-level
 * metadata the approximation layer piggybacks on the shuffle: the task
 * id (cluster id for multi-stage sampling), block item counts, and
 * whether the task is running its user-defined approximate variant.
 * Each emitted key is stored once, in its KeyValue; the framework
 * interns keys later, and only for the stages that group or route by
 * key (see Job::computeMapOutput).
 */
class MapContext
{
  public:
    /**
     * @param task_id         map task id (doubles as the cluster id)
     * @param items_total     M_i: items in the input block
     * @param items_processed m_i: items in the sample being processed
     * @param approximate     user-defined-approximation flag for the task
     * @param rng             task-private randomness (derived per task so
     *                        results are reproducible under any schedule)
     */
    MapContext(uint64_t task_id, uint64_t items_total,
               uint64_t items_processed, bool approximate, Rng rng)
        : task_id_(task_id), items_total_(items_total),
          items_processed_(items_processed), approximate_(approximate),
          rng_(rng)
    {
    }

    /** Emits an intermediate record. */
    void
    write(std::string_view key, double value)
    {
        output_.push_back(KeyValue{std::string(key), value, 0.0});
    }

    /** Emits a ratio observation (numerator, denominator). */
    void
    write(std::string_view key, double value, double value2)
    {
        output_.push_back(KeyValue{std::string(key), value, value2});
    }

    /** Emits a pre-built record (e.g. a three-stage unit record). */
    void emit(KeyValue kv) { output_.push_back(std::move(kv)); }

    uint64_t taskId() const { return task_id_; }
    uint64_t itemsTotal() const { return items_total_; }
    uint64_t itemsProcessed() const { return items_processed_; }

    /** True when this task should run the approximate code path. */
    bool approximate() const { return approximate_; }

    /** Task-private randomness (e.g., for Monte Carlo map tasks). */
    Rng& rng() { return rng_; }

    /** Emitted records, in emission order. */
    const std::vector<KeyValue>& output() const { return output_; }

    /** Moves the emitted records out; the framework calls this once. */
    std::vector<KeyValue> takeOutput() { return std::move(output_); }

  private:
    uint64_t task_id_;
    uint64_t items_total_;
    uint64_t items_processed_;
    bool approximate_;
    Rng rng_;
    std::vector<KeyValue> output_;
};

/**
 * User map function. One instance is created per map task (so instances
 * may keep per-task state between calls, like Hadoop's Mapper).
 *
 * Each input record is one data item of the block, and every (sampled)
 * item is mapped once. This mirrors Hadoop's TextInputFormat convention
 * where the value is one line of the input file.
 */
class Mapper
{
  public:
    virtual ~Mapper() = default;

    /** Called once before the first record. */
    virtual void setup(MapContext& /*ctx*/) {}

    /** Maps one (sampled) input record. */
    virtual void map(const std::string& record, MapContext& ctx) = 0;

    /**
     * Batched map call: processes a run of records in one virtual
     * dispatch (Job::computeMapOutput hands over kBatchRecords views at
     * a time). The default loops over map(), so a record-at-a-time
     * mapper works unchanged; BatchMapper subclasses write only this
     * body and get map() as a batch of one.
     */
    virtual void
    mapBatch(const std::string_view* records, size_t count, MapContext& ctx)
    {
        std::string scratch;
        for (size_t i = 0; i < count; ++i) {
            scratch.assign(records[i].data(), records[i].size());
            map(scratch, ctx);
        }
    }

    /** Called once after the last record. */
    virtual void cleanup(MapContext& /*ctx*/) {}
};

/**
 * A mapper whose one body is mapBatch(), parsing record views in place
 * (no per-record std::string). map() runs that body on a batch of one,
 * so record-at-a-time callers such as the chaos oracle's replay see
 * exactly what the batched path emits. A subclass must emit the same
 * records however a task's records are split into batches
 * (tests/apps/map_batch_test.cc checks widths 1, 5 and a whole block).
 */
class BatchMapper : public Mapper
{
  public:
    void
    map(const std::string& record, MapContext& ctx) final
    {
        std::string_view view(record);
        mapBatch(&view, 1, ctx);
    }

    void mapBatch(const std::string_view* records, size_t count,
                  MapContext& ctx) override = 0;
};

}  // namespace approxhadoop::mr

#endif  // APPROXHADOOP_MAPREDUCE_MAPPER_H_
