#ifndef APPROXHADOOP_COMMON_RANDOM_H_
#define APPROXHADOOP_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace approxhadoop {

/**
 * MT19937-64 with lazy seeding: the output sequence is bit-identical to
 * std::mt19937_64 seeded with the same value, but a fresh engine only
 * does the work its draws need.
 *
 * std::mt19937_64 runs the whole 312-word seeding recurrence and then
 * twists all 312 words before its first output. Draw k of the first
 * generation only depends on seed words k, k+1 and k+156, and (for
 * k >= 156) on twisted words below k. So the first generation extends
 * the seeding recurrence just far enough for the next draw and twists
 * one word per draw, in the order std::mt19937_64 twists them. A
 * generator seeded per record and drawn a handful of times costs about
 * half the seeding recurrence and a few twists instead of 624 word
 * updates. From the second generation on, all 312 words are regenerated
 * at once, exactly like the standard engine.
 *
 * Satisfies UniformRandomBitGenerator with the standard engine's
 * min()/max(), so every std distribution takes the same code path and
 * returns the same values over either engine.
 */
class LazyMt19937_64
{
  public:
    using result_type = uint64_t;

    static constexpr size_t kStateWords = 312;

    explicit LazyMt19937_64(uint64_t seed) { x_[0] = seed; }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    result_type
    operator()()
    {
        if (pos_ < ready_) {
            return temper(x_[pos_++]);
        }
        return refill();
    }

    /** The initialized state words (all 312 once the seed is complete). */
    std::span<const uint64_t> words() const { return {x_, seeded_}; }

    /** Index of the next word to output within the current generation. */
    size_t position() const { return pos_; }

  private:
    static uint64_t
    temper(uint64_t z)
    {
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        return z ^ (z >> 43);
    }

    /** Twists the next word (first generation) or regenerates all. */
    result_type refill();

    uint64_t x_[kStateWords] = {};
    /** Words [0, seeded_) hold seed-recurrence or twisted values. */
    size_t seeded_ = 1;
    /** Words [0, ready_) of the current generation are twisted. */
    size_t ready_ = 0;
    size_t pos_ = 0;
};

/**
 * Deterministic random source used everywhere in the framework.
 *
 * Wraps a 64-bit Mersenne Twister (LazyMt19937_64, bit-identical to
 * std::mt19937_64) with the handful of draws the framework needs. Every
 * component that needs randomness receives (or derives) an explicit Rng
 * so that whole experiments are reproducible from a single seed. Use
 * derive() to split independent streams (e.g., one per map task) without
 * correlated sequences.
 */
class Rng
{
  public:
    /** Constructs a generator from an explicit seed. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Returns a uniformly distributed double in [0, 1). */
    double uniform();

    /** Returns a uniformly distributed double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Returns a uniformly distributed integer in [0, n). @pre n > 0 */
    uint64_t uniformInt(uint64_t n);

    /** Returns true with probability @p p (clamped to [0, 1]). */
    bool bernoulli(double p);

    /** Returns a normal deviate with the given mean and stddev. */
    double normal(double mean, double stddev);

    /** Returns a lognormal deviate with the given log-space parameters. */
    double lognormal(double mu, double sigma);

    /** Returns an exponential deviate with the given rate. */
    double exponential(double rate);

    /**
     * Derives an independent child generator.
     *
     * @param stream distinguishes sibling children derived from the same
     *               parent (e.g., a task index)
     */
    Rng derive(uint64_t stream);

    /**
     * Samples @p k distinct indices uniformly from [0, n) in O(k) expected
     * time (Floyd's algorithm). The result is not sorted.
     */
    std::vector<uint64_t> sampleWithoutReplacement(uint64_t n, uint64_t k);

    /** Shuffles @p values in place (Fisher-Yates). */
    template <typename T>
    void
    shuffle(std::vector<T>& values)
    {
        for (size_t i = values.size(); i > 1; --i) {
            size_t j = uniformInt(i);
            std::swap(values[i - 1], values[j]);
        }
    }

    /**
     * Raw engine state, for digests: two generators built from the same
     * seed that made the same draws expose equal words and position.
     * Reading it never advances the engine. The span is valid until the
     * next draw or the generator's destruction.
     */
    std::span<const uint64_t> stateWords() const { return engine_.words(); }
    size_t statePosition() const { return engine_.position(); }

  private:
    LazyMt19937_64 engine_;
};

/** SplitMix64 step; used for cheap per-item hashing/seeding. */
uint64_t splitmix64(uint64_t x);

}  // namespace approxhadoop

#endif  // APPROXHADOOP_COMMON_RANDOM_H_
