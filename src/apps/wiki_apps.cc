#include "apps/wiki_apps.h"

#include <charconv>
#include <cstring>
#include <vector>

#include "mapreduce/reducer.h"
#include "workloads/wiki_dump.h"

namespace approxhadoop::apps {

// ---------------------------------------------------------------------------
// WikiLength
// ---------------------------------------------------------------------------

namespace {

/** Formats "len%08llu" into @p buf (no heap); same bytes as snprintf. */
std::string_view
formatBinKey(uint64_t bin, char (&buf)[24])
{
    char digits[20];
    auto res = std::to_chars(digits, digits + sizeof(digits), bin);
    size_t n = static_cast<size_t>(res.ptr - digits);
    std::memcpy(buf, "len", 3);
    size_t pad = n < 8 ? 8 - n : 0;
    std::memset(buf + 3, '0', pad);
    std::memcpy(buf + 3 + pad, digits, n);
    return std::string_view(buf, 3 + pad + n);
}

}  // namespace

void
WikiLength::Mapper::mapBatch(const std::string_view* records, size_t count,
                             mr::MapContext& ctx)
{
    char buf[24];
    for (size_t i = 0; i < count; ++i) {
        uint64_t size = workloads::wikiArticleSize(records[i]);
        uint64_t bin = size / kBinWidthBytes * kBinWidthBytes;
        ctx.write(formatBinKey(bin, buf), 1.0);
    }
}

mr::Job::MapperFactory
WikiLength::mapperFactory()
{
    return [] { return std::make_unique<Mapper>(); };
}

mr::Job::ReducerFactory
WikiLength::preciseReducerFactory()
{
    return [] {
        return std::make_unique<mr::PreciseReducer>(
            mr::PreciseReducer::Op::kSum);
    };
}

mr::JobConfig
WikiLength::jobConfig(uint64_t items_per_block, uint32_t num_reducers)
{
    mr::JobConfig config;
    config.name = "WikiLength";
    config.num_reducers = num_reducers;
    // ~70 s per 400-article block: read-dominated, so input sampling can
    // save at most ~21% while dropping saves proportionally (Fig. 6).
    double scale = 400.0 / static_cast<double>(items_per_block);
    config.map_cost.t0 = 1.5;
    config.map_cost.t_read = 0.135 * scale;
    config.map_cost.t_process = 0.037 * scale;
    config.map_cost.noise_sigma = 0.03;
    config.map_cost.straggler_prob = 0.002;
    config.map_cost.straggler_factor = 2.0;
    config.reduce_cost.t0 = 2.0;
    config.reduce_cost.t_record = 2e-5;
    return config;
}

// ---------------------------------------------------------------------------
// WikiPageRank
// ---------------------------------------------------------------------------

void
WikiPageRank::Mapper::mapBatch(const std::string_view* records,
                               size_t count, mr::MapContext& ctx)
{
    for (size_t i = 0; i < count; ++i) {
        links_.clear();
        workloads::wikiArticleLinks(records[i], links_);
        for (std::string_view target : links_) {
            ctx.write(target, 1.0);
        }
    }
}

mr::Job::MapperFactory
WikiPageRank::mapperFactory()
{
    return [] { return std::make_unique<Mapper>(); };
}

mr::Job::ReducerFactory
WikiPageRank::preciseReducerFactory()
{
    return [] {
        return std::make_unique<mr::PreciseReducer>(
            mr::PreciseReducer::Op::kSum);
    };
}

mr::JobConfig
WikiPageRank::jobConfig(uint64_t items_per_block, uint32_t num_reducers)
{
    mr::JobConfig config = WikiLength::jobConfig(items_per_block,
                                                 num_reducers);
    config.name = "WikiPageRank";
    // Link extraction is heavier per article than size binning; the
    // paper reports ~8% framework overhead for this app.
    config.map_cost.t_process *= 1.6;
    return config;
}

}  // namespace approxhadoop::apps
