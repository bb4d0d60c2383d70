#include "mapreduce/reducer.h"

#include <algorithm>
#include <numeric>

#include "integrity/blob.h"

namespace approxhadoop::mr {

void
PreciseReducer::consume(const MapOutputChunk& chunk)
{
    for (const KeyValue& kv : chunk.records) {
        uint32_t id = keys_.intern(kv.key);
        if (id == acc_.size()) {
            acc_.emplace_back();
        }
        Acc& acc = acc_[id];
        if (op_ == Op::kMin) {
            acc.value = acc.n == 0 ? kv.value : std::min(acc.value, kv.value);
        } else {
            acc.value += kv.value;
        }
        ++acc.n;
    }
}

std::vector<uint32_t>
PreciseReducer::sortedIds() const
{
    std::vector<uint32_t> ids(acc_.size());
    std::iota(ids.begin(), ids.end(), 0);
    std::sort(ids.begin(), ids.end(), [this](uint32_t a, uint32_t b) {
        return keys_.key(a) < keys_.key(b);
    });
    return ids;
}

void
PreciseReducer::finalize(ReduceContext& ctx)
{
    for (uint32_t id : sortedIds()) {
        const Acc& acc = acc_[id];
        ctx.write(keys_.key(id), op_ == Op::kAverage
                                     ? acc.value / static_cast<double>(acc.n)
                                     : acc.value);
    }
}

bool
PreciseReducer::checkpoint(std::string& state) const
{
    integrity::BlobWriter w;
    w.putU64(acc_.size());
    for (uint32_t id : sortedIds()) {
        w.putString(keys_.key(id));
        w.putDouble(acc_[id].value);
        w.putU64(acc_[id].n);
    }
    state = w.release();
    return true;
}

bool
PreciseReducer::restore(const std::string& state)
{
    integrity::BlobReader r(state);
    KeyInterner keys;
    std::vector<Acc> acc;
    uint64_t num_keys = r.getU64();
    for (uint64_t k = 0; k < num_keys; ++k) {
        uint32_t id = keys.intern(r.getString());
        acc.resize(keys.size());
        acc[id].value = r.getDouble();
        acc[id].n = r.getU64();
    }
    r.expectEnd();
    keys_ = std::move(keys);
    acc_ = std::move(acc);
    return true;
}

}  // namespace approxhadoop::mr
