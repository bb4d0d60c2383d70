#ifndef APPROXHADOOP_APPS_LOG_APPS_H_
#define APPROXHADOOP_APPS_LOG_APPS_H_

#include <string>
#include <string_view>

#include "core/sampling_reducer.h"
#include "mapreduce/job.h"
#include "mapreduce/job_config.h"

namespace approxhadoop::apps {

/**
 * Shared cost model for Wikipedia access-log processing: grep-like
 * per-line work, ~10.6 s per 400-entry block on the Xeon reference
 * (744 blocks of the 1-week log run in ~9.3 waves, reproducing the
 * paper's Figure 7/9 runtimes). The paper measures ~12% framework
 * overhead for these apps.
 *
 * @param items_per_block log entries per block of the dataset in use
 */
mr::JobConfig logProcessingConfig(const std::string& name,
                                  uint64_t items_per_block = 400,
                                  uint32_t num_reducers = 1);

/**
 * Project Popularity (Section 5.2): accesses per Wikipedia project.
 * Map emits <project, 1>; Reduce counts. Multi-stage sampling (kCount).
 */
class ProjectPopularity
{
  public:
    class Mapper : public mr::BatchMapper
    {
      public:
        void mapBatch(const std::string_view* records, size_t count,
                      mr::MapContext& ctx) override;
    };

    static mr::Job::MapperFactory mapperFactory();
    static mr::Job::ReducerFactory preciseReducerFactory();
    static constexpr core::MultiStageSamplingReducer::Op kOp =
        core::MultiStageSamplingReducer::Op::kCount;
};

/** Page Popularity: accesses per page. */
class PagePopularity
{
  public:
    class Mapper : public mr::BatchMapper
    {
      public:
        void mapBatch(const std::string_view* records, size_t count,
                      mr::MapContext& ctx) override;
    };

    static mr::Job::MapperFactory mapperFactory();
    static mr::Job::ReducerFactory preciseReducerFactory();
    static constexpr core::MultiStageSamplingReducer::Op kOp =
        core::MultiStageSamplingReducer::Op::kCount;
};

/** Page Traffic: bytes served per page (kSum over response sizes). */
class PageTraffic
{
  public:
    class Mapper : public mr::BatchMapper
    {
      public:
        void mapBatch(const std::string_view* records, size_t count,
                      mr::MapContext& ctx) override;
    };

    static mr::Job::MapperFactory mapperFactory();
    static mr::Job::ReducerFactory preciseReducerFactory();
    static constexpr core::MultiStageSamplingReducer::Op kOp =
        core::MultiStageSamplingReducer::Op::kSum;
};

/**
 * Request Rate over the access log: accesses per hour-of-week slot.
 * Map emits <hour, 1>; Reduce counts.
 */
class LogRequestRate
{
  public:
    class Mapper : public mr::BatchMapper
    {
      public:
        void mapBatch(const std::string_view* records, size_t count,
                      mr::MapContext& ctx) override;
    };

    static mr::Job::MapperFactory mapperFactory();
    static mr::Job::ReducerFactory preciseReducerFactory();
    static constexpr core::MultiStageSamplingReducer::Op kOp =
        core::MultiStageSamplingReducer::Op::kCount;
};

}  // namespace approxhadoop::apps

#endif  // APPROXHADOOP_APPS_LOG_APPS_H_
