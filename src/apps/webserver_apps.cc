#include "apps/webserver_apps.h"

#include <cstdio>
#include <memory>

#include "mapreduce/reducer.h"
#include "workloads/webserver_log.h"

namespace approxhadoop::apps {

mr::JobConfig
webServerLogConfig(const std::string& name, uint64_t items_per_block,
                   uint32_t num_reducers)
{
    mr::JobConfig config;
    config.name = name;
    config.num_reducers = num_reducers;
    double scale = 600.0 / static_cast<double>(items_per_block);
    config.map_cost.t0 = 1.0;
    config.map_cost.t_read = 0.009 * scale;
    config.map_cost.t_process = 0.009 * scale;
    config.map_cost.noise_sigma = 0.03;
    config.map_cost.straggler_prob = 0.002;
    config.map_cost.straggler_factor = 2.0;
    config.reduce_cost.t0 = 1.0;
    config.reduce_cost.t_record = 2e-5;
    return config;
}

void
WebRequestRate::Mapper::mapBatch(const std::string_view* records,
                                 size_t count, mr::MapContext& ctx)
{
    workloads::WebLogEntryView entry;
    char key[16];
    for (size_t i = 0; i < count; ++i) {
        if (!workloads::parseWebLogEntry(records[i], entry)) {
            continue;
        }
        std::snprintf(key, sizeof(key), "h%03u", entry.hour_of_week);
        ctx.write(key, 1.0);
    }
}

mr::Job::MapperFactory
WebRequestRate::mapperFactory()
{
    return [] { return std::make_unique<Mapper>(); };
}

mr::Job::ReducerFactory
WebRequestRate::preciseReducerFactory()
{
    return [] {
        return std::make_unique<mr::PreciseReducer>(
            mr::PreciseReducer::Op::kSum);
    };
}

void
AttackFrequencies::Mapper::mapBatch(const std::string_view* records,
                                    size_t count, mr::MapContext& ctx)
{
    workloads::WebLogEntryView entry;
    for (size_t i = 0; i < count; ++i) {
        if (workloads::parseWebLogEntry(records[i], entry) && entry.attack) {
            ctx.write(entry.client, 1.0);
        }
    }
}

mr::Job::MapperFactory
AttackFrequencies::mapperFactory()
{
    return [] { return std::make_unique<Mapper>(); };
}

mr::Job::ReducerFactory
AttackFrequencies::preciseReducerFactory()
{
    return [] {
        return std::make_unique<mr::PreciseReducer>(
            mr::PreciseReducer::Op::kSum);
    };
}

void
TotalSize::Mapper::mapBatch(const std::string_view* records, size_t count,
                            mr::MapContext& ctx)
{
    workloads::WebLogEntryView entry;
    for (size_t i = 0; i < count; ++i) {
        if (workloads::parseWebLogEntry(records[i], entry)) {
            ctx.write("total_bytes", static_cast<double>(entry.bytes));
        }
    }
}

mr::Job::MapperFactory
TotalSize::mapperFactory()
{
    return [] { return std::make_unique<Mapper>(); };
}

mr::Job::ReducerFactory
TotalSize::preciseReducerFactory()
{
    return [] {
        return std::make_unique<mr::PreciseReducer>(
            mr::PreciseReducer::Op::kSum);
    };
}

void
RequestSize::Mapper::mapBatch(const std::string_view* records, size_t count,
                              mr::MapContext& ctx)
{
    workloads::WebLogEntryView entry;
    for (size_t i = 0; i < count; ++i) {
        if (workloads::parseWebLogEntry(records[i], entry)) {
            ctx.write("mean_bytes", static_cast<double>(entry.bytes));
        }
    }
}

mr::Job::MapperFactory
RequestSize::mapperFactory()
{
    return [] { return std::make_unique<Mapper>(); };
}

mr::Job::ReducerFactory
RequestSize::preciseReducerFactory()
{
    return [] {
        return std::make_unique<mr::PreciseReducer>(
            mr::PreciseReducer::Op::kAverage);
    };
}

void
Clients::Mapper::mapBatch(const std::string_view* records, size_t count,
                          mr::MapContext& ctx)
{
    workloads::WebLogEntryView entry;
    for (size_t i = 0; i < count; ++i) {
        if (workloads::parseWebLogEntry(records[i], entry)) {
            ctx.write(entry.client, 1.0);
        }
    }
}

mr::Job::MapperFactory
Clients::mapperFactory()
{
    return [] { return std::make_unique<Mapper>(); };
}

mr::Job::ReducerFactory
Clients::preciseReducerFactory()
{
    return [] {
        return std::make_unique<mr::PreciseReducer>(
            mr::PreciseReducer::Op::kSum);
    };
}

void
ClientBrowser::Mapper::mapBatch(const std::string_view* records,
                                size_t count, mr::MapContext& ctx)
{
    workloads::WebLogEntryView entry;
    for (size_t i = 0; i < count; ++i) {
        if (workloads::parseWebLogEntry(records[i], entry)) {
            ctx.write(entry.browser, 1.0);
        }
    }
}

mr::Job::MapperFactory
ClientBrowser::mapperFactory()
{
    return [] { return std::make_unique<Mapper>(); };
}

mr::Job::ReducerFactory
ClientBrowser::preciseReducerFactory()
{
    return [] {
        return std::make_unique<mr::PreciseReducer>(
            mr::PreciseReducer::Op::kSum);
    };
}

}  // namespace approxhadoop::apps
