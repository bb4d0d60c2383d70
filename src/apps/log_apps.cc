#include "apps/log_apps.h"

#include <cstdio>
#include <memory>

#include "mapreduce/reducer.h"
#include "workloads/access_log.h"

namespace approxhadoop::apps {

mr::JobConfig
logProcessingConfig(const std::string& name, uint64_t items_per_block,
                    uint32_t num_reducers)
{
    mr::JobConfig config;
    config.name = name;
    config.num_reducers = num_reducers;
    double scale = 400.0 / static_cast<double>(items_per_block);
    config.map_cost.t0 = 1.0;
    config.map_cost.t_read = 0.012 * scale;
    config.map_cost.t_process = 0.012 * scale;
    config.map_cost.noise_sigma = 0.03;
    config.map_cost.straggler_prob = 0.002;
    config.map_cost.straggler_factor = 2.0;
    config.reduce_cost.t0 = 1.5;
    config.reduce_cost.t_record = 2e-5;
    return config;
}

void
ProjectPopularity::Mapper::mapBatch(const std::string_view* records,
                                    size_t count, mr::MapContext& ctx)
{
    workloads::AccessLogEntryView entry;
    for (size_t i = 0; i < count; ++i) {
        if (workloads::parseAccessLogEntry(records[i], entry)) {
            ctx.write(entry.project, 1.0);
        }
    }
}

mr::Job::MapperFactory
ProjectPopularity::mapperFactory()
{
    return [] { return std::make_unique<Mapper>(); };
}

mr::Job::ReducerFactory
ProjectPopularity::preciseReducerFactory()
{
    return [] {
        return std::make_unique<mr::PreciseReducer>(
            mr::PreciseReducer::Op::kSum);
    };
}

void
PagePopularity::Mapper::mapBatch(const std::string_view* records,
                                 size_t count, mr::MapContext& ctx)
{
    workloads::AccessLogEntryView entry;
    for (size_t i = 0; i < count; ++i) {
        if (workloads::parseAccessLogEntry(records[i], entry)) {
            ctx.write(entry.page, 1.0);
        }
    }
}

mr::Job::MapperFactory
PagePopularity::mapperFactory()
{
    return [] { return std::make_unique<Mapper>(); };
}

mr::Job::ReducerFactory
PagePopularity::preciseReducerFactory()
{
    return [] {
        return std::make_unique<mr::PreciseReducer>(
            mr::PreciseReducer::Op::kSum);
    };
}

void
PageTraffic::Mapper::mapBatch(const std::string_view* records, size_t count,
                              mr::MapContext& ctx)
{
    workloads::AccessLogEntryView entry;
    for (size_t i = 0; i < count; ++i) {
        if (workloads::parseAccessLogEntry(records[i], entry)) {
            ctx.write(entry.page, static_cast<double>(entry.bytes));
        }
    }
}

mr::Job::MapperFactory
PageTraffic::mapperFactory()
{
    return [] { return std::make_unique<Mapper>(); };
}

mr::Job::ReducerFactory
PageTraffic::preciseReducerFactory()
{
    return [] {
        return std::make_unique<mr::PreciseReducer>(
            mr::PreciseReducer::Op::kSum);
    };
}

void
LogRequestRate::Mapper::mapBatch(const std::string_view* records,
                                 size_t count, mr::MapContext& ctx)
{
    workloads::AccessLogEntryView entry;
    char key[16];
    for (size_t i = 0; i < count; ++i) {
        if (!workloads::parseAccessLogEntry(records[i], entry)) {
            continue;
        }
        uint32_t hour =
            static_cast<uint32_t>((entry.timestamp / 3600) % 168);
        std::snprintf(key, sizeof(key), "h%03u", hour);
        ctx.write(key, 1.0);
    }
}

mr::Job::MapperFactory
LogRequestRate::mapperFactory()
{
    return [] { return std::make_unique<Mapper>(); };
}

mr::Job::ReducerFactory
LogRequestRate::preciseReducerFactory()
{
    return [] {
        return std::make_unique<mr::PreciseReducer>(
            mr::PreciseReducer::Op::kSum);
    };
}

}  // namespace approxhadoop::apps
