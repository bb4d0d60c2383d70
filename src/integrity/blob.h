#ifndef APPROXHADOOP_INTEGRITY_BLOB_H_
#define APPROXHADOOP_INTEGRITY_BLOB_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace approxhadoop::integrity {

/**
 * Minimal binary serializer for reducer checkpoints.
 *
 * Checkpoint blobs must restore reducer state *bit-identically* —
 * recovered runs are pinned to match fault-free runs exactly — so
 * doubles are encoded as raw IEEE-754 bit patterns, never via text
 * round-trips. All integers are fixed-width little-endian; strings are
 * length-prefixed. The format needs no schema evolution: a checkpoint
 * never outlives the job that wrote it.
 */
class BlobWriter
{
  public:
    BlobWriter() = default;
    /** Continues appending after the existing bytes of @p buf. */
    explicit BlobWriter(std::string buf) : buf_(std::move(buf)) {}

    /** Reserves room for @p bytes bytes in total. */
    void reserve(size_t bytes) { buf_.reserve(bytes); }

    void putU64(uint64_t v);
    /** Bit-exact double encoding. */
    void putDouble(double v);
    void putString(const std::string& s);
    void putBool(bool v) { putU64(v ? 1 : 0); }

    const std::string& str() const { return buf_; }
    std::string release() { return std::move(buf_); }

  private:
    std::string buf_;
};

/**
 * Reader for BlobWriter output.
 *
 * @throws std::runtime_error on truncated or overlong input — a
 *         checkpoint that fails to parse is treated as corrupt.
 */
class BlobReader
{
  public:
    explicit BlobReader(const std::string& buf) : buf_(buf) {}

    uint64_t getU64();
    double getDouble();
    std::string getString();
    bool getBool() { return getU64() != 0; }

    bool atEnd() const { return pos_ == buf_.size(); }

    /** @throws std::runtime_error unless the whole blob was consumed. */
    void expectEnd() const;

  private:
    void need(size_t bytes) const;

    const std::string& buf_;
    size_t pos_ = 0;
};

}  // namespace approxhadoop::integrity

#endif  // APPROXHADOOP_INTEGRITY_BLOB_H_
