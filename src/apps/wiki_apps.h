#ifndef APPROXHADOOP_APPS_WIKI_APPS_H_
#define APPROXHADOOP_APPS_WIKI_APPS_H_

#include <string>
#include <string_view>
#include <vector>

#include "core/sampling_reducer.h"
#include "mapreduce/job.h"
#include "mapreduce/job_config.h"

namespace approxhadoop::apps {

/**
 * WikiLength (paper Section 5.2): histogram of Wikipedia article
 * lengths. The Map phase emits <size_bin, 1> per article; the Reduce
 * phase sums per bin. Error estimation: multi-stage sampling (kCount).
 */
class WikiLength
{
  public:
    static constexpr int kBinWidthBytes = 100;

    class Mapper : public mr::BatchMapper
    {
      public:
        void mapBatch(const std::string_view* records, size_t count,
                      mr::MapContext& ctx) override;
    };

    static mr::Job::MapperFactory mapperFactory();
    static mr::Job::ReducerFactory preciseReducerFactory();

    /**
     * Cost model calibrated to the paper's Xeon cluster: ~70 s per map
     * task over a 400-article block, with input sampling able to save
     * ~21% (Figure 6(a)) because reading dominates processing.
     *
     * @param items_per_block articles per block of the dataset in use
     */
    static mr::JobConfig jobConfig(uint64_t items_per_block = 400,
                                   uint32_t num_reducers = 1);

    static constexpr core::MultiStageSamplingReducer::Op kOp =
        core::MultiStageSamplingReducer::Op::kCount;
};

/**
 * WikiPageRank (paper Section 5.2): counts incoming links per article
 * (the core PageRank kernel). Map emits <target_article, 1> per link;
 * Reduce sums. Error estimation: multi-stage sampling (kCount).
 */
class WikiPageRank
{
  public:
    class Mapper : public mr::BatchMapper
    {
      public:
        void mapBatch(const std::string_view* records, size_t count,
                      mr::MapContext& ctx) override;

      private:
        /** Scratch for link views, reused across records. */
        std::vector<std::string_view> links_;
    };

    static mr::Job::MapperFactory mapperFactory();
    static mr::Job::ReducerFactory preciseReducerFactory();
    static mr::JobConfig jobConfig(uint64_t items_per_block = 400,
                                   uint32_t num_reducers = 1);

    static constexpr core::MultiStageSamplingReducer::Op kOp =
        core::MultiStageSamplingReducer::Op::kCount;
};

}  // namespace approxhadoop::apps

#endif  // APPROXHADOOP_APPS_WIKI_APPS_H_
