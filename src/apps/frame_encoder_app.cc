#include "apps/frame_encoder_app.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/random.h"
#include "mapreduce/reducer.h"

namespace approxhadoop::apps {

namespace {

/**
 * Deterministic pseudo match cost of candidate c for macroblock mb of
 * frame f: stands in for the SAD of a motion-estimation candidate. The
 * best candidate over a window is what the search is looking for.
 */
double
candidateCost(uint64_t frame, uint32_t mb, uint32_t candidate,
              double complexity)
{
    uint64_t h = splitmix64(frame * 131071 + mb * 257 + candidate);
    double u = static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
    // Costs cluster near the complexity floor; the exhaustive search is
    // more likely to find a candidate near it.
    return complexity * (0.5 + u);
}

}  // namespace

void
FrameEncoderApp::Mapper::encode(const std::string& record,
                                mr::MapContext& ctx, uint32_t candidates)
{
    // Record: "frame_id <TAB> complexity".
    uint64_t frame = std::strtoull(record.c_str(), nullptr, 10);
    const char* tab = std::strchr(record.c_str(), '\t');
    double complexity = tab ? std::strtod(tab + 1, nullptr) : 1.0;

    double total_bits = 0.0;
    double total_error = 0.0;
    for (uint32_t mb = 0; mb < kMacroblocks; ++mb) {
        double best = candidateCost(frame, mb, 0, complexity);
        for (uint32_t c = 1; c < candidates; ++c) {
            best = std::min(best, candidateCost(frame, mb, c, complexity));
        }
        // Residual bits grow with the (un)matched cost.
        total_bits += 80.0 + 160.0 * best;
        total_error += best;
    }
    ctx.write("bits", total_bits);
    double mse = total_error / kMacroblocks;
    ctx.write("psnr", 10.0 * std::log10(255.0 * 255.0 / (mse + 1e-9)));
}

void
FrameEncoderApp::Mapper::mapPrecise(const std::string& record,
                                    mr::MapContext& ctx)
{
    encode(record, ctx, kFullSearchCandidates);
}

void
FrameEncoderApp::Mapper::mapApprox(const std::string& record,
                                   mr::MapContext& ctx)
{
    encode(record, ctx, kDiamondCandidates);
}

std::unique_ptr<hdfs::BlockDataset>
FrameEncoderApp::makeFrames(uint64_t num_blocks, uint64_t frames_per_block,
                            uint64_t seed)
{
    auto generator = [seed, frames_per_block](uint64_t block,
                                              uint64_t index) {
        uint64_t frame = block * frames_per_block + index;
        Rng rng(splitmix64(seed ^ frame));
        // Scene complexity varies smoothly along the movie.
        double complexity =
            1.0 +
            0.6 * std::sin(static_cast<double>(frame) / 40.0) +
            rng.uniform(0.0, 0.4);
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%llu\t%.4f",
                      static_cast<unsigned long long>(frame), complexity);
        return std::string(buf);
    };
    return std::make_unique<hdfs::GeneratedDataset>(
        num_blocks, frames_per_block, generator, 6000);
}

mr::Job::MapperFactory
FrameEncoderApp::mapperFactory()
{
    return [] { return std::make_unique<Mapper>(); };
}

mr::Job::ReducerFactory
FrameEncoderApp::reducerFactory()
{
    return [] {
        return std::make_unique<mr::PreciseReducer>(
            mr::PreciseReducer::Op::kAverage);
    };
}

mr::JobConfig
FrameEncoderApp::jobConfig(uint64_t frames_per_block, uint32_t num_reducers)
{
    mr::JobConfig config;
    config.name = "VideoEncoding";
    config.num_reducers = num_reducers;
    double scale = 120.0 / static_cast<double>(frames_per_block);
    config.map_cost.t0 = 1.5;
    config.map_cost.t_read = 0.02 * scale;
    config.map_cost.t_process = 0.5 * scale;
    // Diamond search evaluates ~1/9 of the candidates.
    config.map_cost.approx_process_factor =
        static_cast<double>(kDiamondCandidates) / kFullSearchCandidates;
    config.map_cost.noise_sigma = 0.03;
    config.reduce_cost.t0 = 1.0;
    config.reduce_cost.t_record = 2e-5;
    return config;
}

}  // namespace approxhadoop::apps
