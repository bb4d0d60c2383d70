#include "integrity/chunk_integrity.h"

#include <bit>
#include <cstring>
#include <string>

#include "integrity/checksum.h"

namespace approxhadoop::integrity {

namespace {

/** Fixed hash seed: chunk digests are stable across jobs and replays. */
constexpr uint64_t kChunkHashSeed = 0x5CA1AB1E0DDBA11ULL;

/**
 * Serializes the digest stream into a fixed stack block and hands each
 * full block to the hasher in one update() call, so hashing costs one
 * streaming call per block instead of several per record. XXH64 digests
 * depend only on the byte stream, not on how it is split into calls.
 */
class BlockSerializer
{
  public:
    explicit BlockSerializer(Hasher64& hasher) : hasher_(hasher) {}

    /** 8 little-endian bytes. */
    void
    putU64(uint64_t v)
    {
        if (len_ + 8 > kBlockBytes) {
            flush();
        }
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(buf_ + len_, &v, 8);
        } else {
            for (size_t i = 0; i < 8; ++i) {
                buf_[len_ + i] = static_cast<unsigned char>(v >> (8 * i));
            }
        }
        len_ += 8;
    }

    /** The IEEE-754 bit pattern (bit-exact, so -0.0 differs from 0.0). */
    void putDouble(double v) { putU64(std::bit_cast<uint64_t>(v)); }

    /** Length prefix, then the bytes (unambiguous concatenation). */
    void
    putString(const std::string& s)
    {
        putU64(s.size());
        if (len_ + s.size() > kBlockBytes) {
            flush();
            if (s.size() > kBlockBytes) {
                hasher_.update(s.data(), s.size());
                return;
            }
        }
        std::memcpy(buf_ + len_, s.data(), s.size());
        len_ += s.size();
    }

    void
    flush()
    {
        hasher_.update(buf_, len_);
        len_ = 0;
    }

  private:
    static constexpr size_t kBlockBytes = 4096;

    Hasher64& hasher_;
    unsigned char buf_[kBlockBytes];
    size_t len_ = 0;
};

}  // namespace

uint64_t
chunkChecksum(const mr::MapOutputChunk& chunk)
{
    Hasher64 h(kChunkHashSeed);
    BlockSerializer out(h);
    out.putU64(chunk.map_task);
    out.putU64(chunk.items_total);
    out.putU64(chunk.items_processed);
    out.putU64(chunk.records_skipped);
    out.putU64(chunk.records.size());
    for (const mr::KeyValue& kv : chunk.records) {
        out.putString(kv.key);
        out.putDouble(kv.value);
        out.putDouble(kv.value2);
        out.putDouble(kv.value3);
        out.putDouble(kv.value4);
    }
    out.flush();
    return h.digest();
}

void
stampChunk(mr::MapOutputChunk& chunk)
{
    chunk.checksum = chunkChecksum(chunk);
}

bool
verifyChunk(const mr::MapOutputChunk& chunk)
{
    return chunk.checksum == chunkChecksum(chunk);
}

void
corruptChunk(mr::MapOutputChunk& chunk, Rng& rng)
{
    if (chunk.records.empty()) {
        // Nothing in the payload to damage; corrupt the sampling
        // metadata instead (still checksum-covered).
        chunk.items_processed ^= 1ULL << rng.uniformInt(16);
        return;
    }
    size_t idx = static_cast<size_t>(rng.uniformInt(chunk.records.size()));
    mr::KeyValue& kv = chunk.records[idx];
    uint64_t bits = 0;
    std::memcpy(&bits, &kv.value, sizeof(bits));
    bits ^= 1ULL << rng.uniformInt(64);
    std::memcpy(&kv.value, &bits, sizeof(bits));
}

}  // namespace approxhadoop::integrity
