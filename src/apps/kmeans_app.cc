#include "apps/kmeans_app.h"

#include <cmath>
#include <cstdio>
#include <limits>

#include "core/approx_job.h"
#include "mapreduce/reducer.h"
#include "workloads/kmeans_data.h"

namespace approxhadoop::apps {

namespace {

/** Squared distance over the first @p dims coordinates. */
double
squaredDistance(const std::vector<double>& a, const std::vector<double>& b,
                uint32_t dims)
{
    double d2 = 0.0;
    uint32_t n = std::min<uint32_t>(
        dims, static_cast<uint32_t>(std::min(a.size(), b.size())));
    for (uint32_t i = 0; i < n; ++i) {
        double d = a[i] - b[i];
        d2 += d * d;
    }
    return d2;
}

std::string
sumKey(size_t centroid, size_t dim)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "c%u_d%u",
                  static_cast<unsigned>(centroid),
                  static_cast<unsigned>(dim));
    return buf;
}

std::string
countKey(size_t centroid)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "c%u_n", static_cast<unsigned>(centroid));
    return buf;
}

}  // namespace

void
KMeansApp::Mapper::assign(const std::string& record, mr::MapContext& ctx,
                          uint32_t dims)
{
    std::vector<double> point = workloads::parsePoint(record);
    if (point.empty() || centroids_->empty()) {
        return;
    }
    size_t best = 0;
    double best_d2 = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < centroids_->size(); ++c) {
        double d2 = squaredDistance(point, (*centroids_)[c], dims);
        if (d2 < best_d2) {
            best_d2 = d2;
            best = c;
        }
    }
    for (size_t d = 0; d < point.size(); ++d) {
        ctx.write(sumKey(best, d), point[d]);
    }
    ctx.write(countKey(best), 1.0);
    // User-defined quality metric: full-dimension SSE of the assignment.
    double full_d2 = squaredDistance(
        point, (*centroids_)[best],
        static_cast<uint32_t>(point.size()));
    ctx.write("sse", full_d2);
}

void
KMeansApp::Mapper::mapPrecise(const std::string& record, mr::MapContext& ctx)
{
    assign(record, ctx, std::numeric_limits<uint32_t>::max());
}

void
KMeansApp::Mapper::mapApprox(const std::string& record, mr::MapContext& ctx)
{
    assign(record, ctx, approx_dims_);
}

mr::JobConfig
KMeansApp::jobConfig(uint64_t points_per_block, uint32_t num_reducers)
{
    mr::JobConfig config;
    config.name = "KMeans";
    config.num_reducers = num_reducers;
    double scale = 300.0 / static_cast<double>(points_per_block);
    config.map_cost.t0 = 1.0;
    config.map_cost.t_read = 0.004 * scale;
    config.map_cost.t_process = 0.03 * scale;
    // The approximate variant checks half the dimensions.
    config.map_cost.approx_process_factor = 0.5;
    config.map_cost.noise_sigma = 0.03;
    config.reduce_cost.t0 = 1.0;
    config.reduce_cost.t_record = 2e-5;
    return config;
}

KMeansApp::Result
KMeansApp::run(sim::Cluster& cluster, const hdfs::BlockDataset& dataset,
               hdfs::NameNode& namenode, const core::ApproxConfig& approx,
               Centroids initial, int iterations)
{
    Result result;
    result.centroids = std::move(initial);
    core::ApproxJobRunner runner(cluster, dataset, namenode);
    uint32_t approx_dims = result.centroids.empty()
                               ? 1
                               : std::max<uint32_t>(
                                     1, static_cast<uint32_t>(
                                            result.centroids[0].size() / 2));

    for (int iter = 0; iter < iterations; ++iter) {
        auto centroids =
            std::make_shared<const Centroids>(result.centroids);
        mr::JobConfig config = jobConfig(dataset.itemsInBlock(0));
        char name[48];
        std::snprintf(name, sizeof(name), "KMeans-iter%d", iter);
        config.name = name;

        mr::JobResult job = runner.runUserDefined(
            config, approx,
            [centroids, approx_dims] {
                return std::make_unique<Mapper>(centroids, approx_dims);
            },
            [] {
                return std::make_unique<mr::PreciseReducer>(
                    mr::PreciseReducer::Op::kSum);
            });

        result.runtime += job.runtime;
        result.energy_wh += job.energy_wh;
        ++result.iterations;

        // Recompute centroids from the emitted sums/counts.
        auto by_key = job.toMap();
        Centroids next = result.centroids;
        for (size_t c = 0; c < next.size(); ++c) {
            const mr::OutputRecord* count = nullptr;
            auto it = by_key.find(countKey(c));
            if (it != by_key.end()) {
                count = &it->second;
            }
            if (count == nullptr || count->value <= 0.0) {
                continue;  // empty cluster keeps its centroid
            }
            for (size_t d = 0; d < next[c].size(); ++d) {
                auto sit = by_key.find(sumKey(c, d));
                if (sit != by_key.end()) {
                    next[c][d] = sit->second.value / count->value;
                }
            }
        }
        result.centroids = std::move(next);
        auto sse = by_key.find("sse");
        result.sse = sse != by_key.end() ? sse->second.value : 0.0;
    }
    return result;
}

}  // namespace approxhadoop::apps
