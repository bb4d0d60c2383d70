#ifndef APPROXHADOOP_INTEGRITY_CHECKSUM_H_
#define APPROXHADOOP_INTEGRITY_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace approxhadoop::integrity {

/**
 * Streaming 64-bit checksum (XXH64 algorithm).
 *
 * Map attempts stamp every shuffle chunk with a digest over its
 * serialized records and sampling metadata; the reduce side recomputes
 * the digest at delivery and treats a mismatch as a corrupt fetch.
 * The hash is seeded and byte-order independent, so digests are stable
 * across platforms and across reruns — a requirement for the
 * deterministic fault replay the rest of the framework guarantees.
 */
class Hasher64
{
  public:
    explicit Hasher64(uint64_t seed = 0);

    /** Feeds raw bytes. */
    void update(const void* data, size_t len);

    /** Feeds one u64 as 8 little-endian bytes. */
    void update(uint64_t v);

    /** Digest of everything fed so far; does not reset the state. */
    uint64_t digest() const;

  private:
    uint64_t v1_;
    uint64_t v2_;
    uint64_t v3_;
    uint64_t v4_;
    uint64_t total_len_ = 0;
    uint64_t seed_;
    unsigned char buf_[32];
    size_t buf_len_ = 0;
};

/** One-shot convenience wrapper over Hasher64. */
uint64_t hash64(const void* data, size_t len, uint64_t seed = 0);

}  // namespace approxhadoop::integrity

#endif  // APPROXHADOOP_INTEGRITY_CHECKSUM_H_
