#include "apps/dc_placement_app.h"

#include <algorithm>
#include <cstdlib>

#include "mapreduce/reducer.h"

namespace approxhadoop::apps {

void
DCPlacementApp::Mapper::map(const std::string& record, mr::MapContext& ctx)
{
    // Each input item is one search seed.
    uint64_t seed = std::strtoull(record.c_str(), nullptr, 10);
    Rng rng(seed);
    double cost = problem_->simulatedAnnealing(rng);
    if (!any_ || cost < best_) {
        best_ = cost;
        any_ = true;
    }
    (void)ctx;
}

void
DCPlacementApp::Mapper::cleanup(mr::MapContext& ctx)
{
    if (any_) {
        // One minimum per map task: already Block Minima format.
        ctx.write(kKey, best_);
    }
}

mr::Job::MapperFactory
DCPlacementApp::mapperFactory(
    std::shared_ptr<const workloads::DCPlacementProblem> problem)
{
    return [problem] { return std::make_unique<Mapper>(problem); };
}

mr::Job::ReducerFactory
DCPlacementApp::preciseReducerFactory()
{
    return [] {
        return std::make_unique<mr::PreciseReducer>(
            mr::PreciseReducer::Op::kMin);
    };
}

mr::JobConfig
DCPlacementApp::jobConfig(uint64_t seeds_per_task, uint32_t num_reducers)
{
    mr::JobConfig config;
    config.name = "DCPlacement";
    config.num_reducers = num_reducers;
    // CPU-bound: negligible read cost, ~25 s of search per seed.
    double scale = 4.0 / static_cast<double>(seeds_per_task);
    config.map_cost.t0 = 2.0;
    config.map_cost.t_read = 0.0;
    config.map_cost.t_process = 25.0 * scale;
    config.map_cost.noise_sigma = 0.06;
    config.map_cost.straggler_prob = 0.002;
    config.map_cost.straggler_factor = 2.0;
    config.reduce_cost.t0 = 1.0;
    config.reduce_cost.t_record = 1e-4;
    return config;
}

}  // namespace approxhadoop::apps
