#include "mapreduce/reducer.h"

#include <algorithm>

#include "integrity/blob.h"

namespace approxhadoop::mr {

void
PreciseReducer::consume(const MapOutputChunk& chunk)
{
    for (const KeyValue& kv : chunk.records) {
        Acc& acc = acc_[kv.key];
        if (op_ == Op::kMin) {
            acc.value = acc.n == 0 ? kv.value : std::min(acc.value, kv.value);
        } else {
            acc.value += kv.value;
        }
        ++acc.n;
    }
}

void
PreciseReducer::finalize(ReduceContext& ctx)
{
    for (const auto& [key, acc] : acc_) {
        ctx.write(key, op_ == Op::kAverage
                           ? acc.value / static_cast<double>(acc.n)
                           : acc.value);
    }
}

bool
PreciseReducer::checkpoint(std::string& state) const
{
    integrity::BlobWriter w;
    w.putU64(acc_.size());
    for (const auto& [key, acc] : acc_) {
        w.putString(key);
        w.putDouble(acc.value);
        w.putU64(acc.n);
    }
    state = w.release();
    return true;
}

bool
PreciseReducer::restore(const std::string& state)
{
    integrity::BlobReader r(state);
    std::map<std::string, Acc> acc;
    uint64_t num_keys = r.getU64();
    for (uint64_t k = 0; k < num_keys; ++k) {
        std::string key = r.getString();
        Acc& a = acc[std::move(key)];
        a.value = r.getDouble();
        a.n = r.getU64();
    }
    r.expectEnd();
    acc_ = std::move(acc);
    return true;
}

}  // namespace approxhadoop::mr
