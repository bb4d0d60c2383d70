#ifndef APPROXHADOOP_APPS_WEBSERVER_APPS_H_
#define APPROXHADOOP_APPS_WEBSERVER_APPS_H_

#include <string>
#include <string_view>

#include "core/sampling_reducer.h"
#include "mapreduce/job.h"
#include "mapreduce/job_config.h"

namespace approxhadoop::apps {

/**
 * Cost model for the departmental web-server log (paper Section 5.4):
 * 80 one-week blocks that fit a single wave on the 10x8-slot Xeon
 * cluster — which is exactly why dropping maps saves energy there but
 * not time (Figure 12).
 */
mr::JobConfig webServerLogConfig(const std::string& name,
                                 uint64_t items_per_block = 600,
                                 uint32_t num_reducers = 1);

/**
 * Request Rate (Figure 10(a)/(b)): average number of requests per
 * hour-of-week. Map emits <hour, 1>; multi-stage sampling (kCount).
 */
class WebRequestRate
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

/**
 * Attack Frequencies (Figure 10(c)): attacks per client for a set of
 * known attack patterns. Rare values, so CIs are wide — the paper's
 * showcase of approximation being least effective on rare keys.
 */
class AttackFrequencies
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

/** Total Size: total bytes served (kSum, single key). */
class TotalSize
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

/** Request Size: average response size in bytes (kAverage). */
class RequestSize
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
        core::MultiStageSamplingReducer::Op::kAverage;
};

/** Clients: requests per client (kCount). */
class Clients
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

/** Client Browser: requests per browser family (kCount). */
class ClientBrowser
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

#endif  // APPROXHADOOP_APPS_WEBSERVER_APPS_H_
