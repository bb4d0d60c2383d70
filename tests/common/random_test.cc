#include "common/random.h"

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

namespace approxhadoop {
namespace {

TEST(RngTest, UniformStaysInUnitInterval)
{
    Rng rng(1);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(RngTest, UniformMeanIsCentered)
{
    Rng rng(2);
    double sum = 0.0;
    const int kSamples = 100000;
    for (int i = 0; i < kSamples; ++i) {
        sum += rng.uniform();
    }
    EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(RngTest, SameSeedSameSequence)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.uniformInt(1000000), b.uniformInt(1000000));
    }
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(42);
    Rng b(43);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.uniformInt(1000000) == b.uniformInt(1000000)) {
            ++same;
        }
    }
    EXPECT_LT(same, 5);
}

TEST(RngTest, UniformIntCoversRange)
{
    Rng rng(3);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = rng.uniformInt(10);
        EXPECT_LT(v, 10u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, BernoulliExtremes)
{
    Rng rng(4);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(RngTest, BernoulliRate)
{
    Rng rng(5);
    int hits = 0;
    const int kSamples = 100000;
    for (int i = 0; i < kSamples; ++i) {
        hits += rng.bernoulli(0.3) ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.01);
}

TEST(RngTest, NormalMoments)
{
    Rng rng(6);
    double sum = 0.0;
    double sum_sq = 0.0;
    const int kSamples = 100000;
    for (int i = 0; i < kSamples; ++i) {
        double x = rng.normal(5.0, 2.0);
        sum += x;
        sum_sq += x * x;
    }
    double mean = sum / kSamples;
    double var = sum_sq / kSamples - mean * mean;
    EXPECT_NEAR(mean, 5.0, 0.05);
    EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(RngTest, LognormalUnitMeanParameterization)
{
    // lognormal(-s^2/2, s) has mean 1: the cost-model noise relies on it.
    Rng rng(7);
    double sigma = 0.3;
    double sum = 0.0;
    const int kSamples = 200000;
    for (int i = 0; i < kSamples; ++i) {
        sum += rng.lognormal(-0.5 * sigma * sigma, sigma);
    }
    EXPECT_NEAR(sum / kSamples, 1.0, 0.01);
}

TEST(RngTest, DeriveProducesIndependentStreams)
{
    Rng parent(8);
    Rng child1 = parent.derive(1);
    Rng child2 = parent.derive(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (child1.uniformInt(1 << 30) == child2.uniformInt(1 << 30)) {
            ++same;
        }
    }
    EXPECT_LT(same, 3);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange)
{
    Rng rng(9);
    auto sample = rng.sampleWithoutReplacement(1000, 100);
    ASSERT_EQ(sample.size(), 100u);
    std::set<uint64_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 100u);
    for (uint64_t v : sample) {
        EXPECT_LT(v, 1000u);
    }
}

TEST(RngTest, SampleWithoutReplacementFullPopulation)
{
    Rng rng(10);
    auto sample = rng.sampleWithoutReplacement(50, 50);
    std::set<uint64_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 50u);
}

TEST(RngTest, SampleWithoutReplacementIsUniform)
{
    // Every element should be chosen with probability k/n.
    Rng rng(11);
    std::vector<int> counts(20, 0);
    const int kTrials = 20000;
    for (int t = 0; t < kTrials; ++t) {
        for (uint64_t v : rng.sampleWithoutReplacement(20, 5)) {
            ++counts[v];
        }
    }
    for (int c : counts) {
        EXPECT_NEAR(static_cast<double>(c) / kTrials, 0.25, 0.02);
    }
}

TEST(RngTest, ShufflePreservesElements)
{
    Rng rng(12);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<int> orig = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

// ---------------------------------------------------------------------------
// Bit-identity with std::mt19937_64
// ---------------------------------------------------------------------------

/** Draw counts straddling the lazy first generation's boundaries. */
constexpr uint64_t kDrawCounts[] = {0, 1, 155, 156, 157, 311, 312, 313, 1000};

std::vector<uint64_t>
identitySeeds()
{
    std::vector<uint64_t> seeds = {0, 1, 2, 42, ~uint64_t{0},
                                   0x8000000000000000ULL};
    for (uint64_t i = 0; i < 40; ++i) {
        seeds.push_back(splitmix64(i * 7919 + 3));
    }
    return seeds;
}

/** Rng's draws over std::mt19937_64: the reference every method must match. */
class ReferenceRng
{
  public:
    explicit ReferenceRng(uint64_t seed) : engine_(splitmix64(seed)) {}

    double
    uniform()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
    }
    double
    uniform(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(engine_);
    }
    uint64_t
    uniformInt(uint64_t n)
    {
        return std::uniform_int_distribution<uint64_t>(0, n - 1)(engine_);
    }
    bool
    bernoulli(double p)
    {
        if (p <= 0.0) {
            return false;
        }
        if (p >= 1.0) {
            return true;
        }
        return uniform() < p;
    }
    double
    normal(double mean, double stddev)
    {
        return std::normal_distribution<double>(mean, stddev)(engine_);
    }
    double
    lognormal(double mu, double sigma)
    {
        return std::lognormal_distribution<double>(mu, sigma)(engine_);
    }
    double
    exponential(double rate)
    {
        return std::exponential_distribution<double>(rate)(engine_);
    }
    ReferenceRng
    derive(uint64_t stream)
    {
        uint64_t base = engine_();
        return ReferenceRng(splitmix64(base ^ splitmix64(stream)));
    }
    std::vector<uint64_t>
    sampleWithoutReplacement(uint64_t n, uint64_t k)
    {
        std::unordered_set<uint64_t> chosen;
        std::vector<uint64_t> result;
        for (uint64_t j = n - k; j < n; ++j) {
            uint64_t t = uniformInt(j + 1);
            if (chosen.count(t)) {
                t = j;
            }
            chosen.insert(t);
            result.push_back(t);
        }
        return result;
    }
    template <typename T>
    void
    shuffle(std::vector<T>& values)
    {
        for (size_t i = values.size(); i > 1; --i) {
            size_t j = uniformInt(i);
            std::swap(values[i - 1], values[j]);
        }
    }

  private:
    std::mt19937_64 engine_;
};

/** Compares a burst of every Rng method, in a fixed order, exactly. */
void
expectSameDraws(Rng& rng, ReferenceRng& ref)
{
    EXPECT_EQ(rng.uniform(), ref.uniform());
    EXPECT_EQ(rng.uniform(-3.5, 11.25), ref.uniform(-3.5, 11.25));
    for (uint64_t n : {uint64_t{1}, uint64_t{7}, uint64_t{1} << 40,
                       ~uint64_t{0}}) {
        EXPECT_EQ(rng.uniformInt(n), ref.uniformInt(n));
    }
    for (double p : {0.0, 0.3, 0.999, 1.0}) {
        EXPECT_EQ(rng.bernoulli(p), ref.bernoulli(p));
    }
    EXPECT_EQ(rng.normal(5.0, 2.0), ref.normal(5.0, 2.0));
    EXPECT_EQ(rng.lognormal(7.2, 1.1), ref.lognormal(7.2, 1.1));
    EXPECT_EQ(rng.exponential(1.0 / 12000.0),
              ref.exponential(1.0 / 12000.0));
    EXPECT_EQ(rng.sampleWithoutReplacement(50, 9),
              ref.sampleWithoutReplacement(50, 9));
    std::vector<int> a{1, 2, 3, 4, 5, 6, 7, 8, 9};
    std::vector<int> b = a;
    rng.shuffle(a);
    ref.shuffle(b);
    EXPECT_EQ(a, b);
    Rng child = rng.derive(17);
    ReferenceRng ref_child = ref.derive(17);
    EXPECT_EQ(child.uniform(), ref_child.uniform());
    EXPECT_EQ(child.normal(0.0, 1.0), ref_child.normal(0.0, 1.0));
}

TEST(LazyMt19937Test, MatchesStdEngineAcrossGenerationBoundaries)
{
    static_assert(LazyMt19937_64::min() == std::mt19937_64::min());
    static_assert(LazyMt19937_64::max() == std::mt19937_64::max());
    for (uint64_t seed : identitySeeds()) {
        for (uint64_t draws : kDrawCounts) {
            LazyMt19937_64 lazy(seed);
            std::mt19937_64 ref(seed);
            for (uint64_t i = 0; i < draws; ++i) {
                ASSERT_EQ(lazy(), ref())
                    << "seed " << seed << " draw " << i;
            }
            // A copy taken mid-stream continues the same sequence, and
            // so does the original it was taken from.
            LazyMt19937_64 lazy_copy = lazy;
            std::mt19937_64 ref_copy = ref;
            for (int i = 0; i < 400; ++i) {
                ASSERT_EQ(lazy_copy(), ref_copy())
                    << "seed " << seed << " copy after " << draws;
            }
            for (int i = 0; i < 400; ++i) {
                ASSERT_EQ(lazy(), ref())
                    << "seed " << seed << " original after " << draws;
            }
        }
    }
}

TEST(RngTest, EveryMethodMatchesStdEngine)
{
    for (uint64_t seed : identitySeeds()) {
        for (uint64_t draws : kDrawCounts) {
            Rng rng(seed);
            ReferenceRng ref(seed);
            for (uint64_t i = 0; i < draws; ++i) {
                ASSERT_EQ(rng.uniform(), ref.uniform());
            }
            Rng rng_copy = rng;
            ReferenceRng ref_copy = ref;
            expectSameDraws(rng, ref);
            expectSameDraws(rng_copy, ref_copy);
        }
    }
}

TEST(RngTest, StateObservesDrawsWithoutAdvancing)
{
    Rng a(21);
    Rng b(21);
    for (uint64_t draws : kDrawCounts) {
        for (uint64_t i = 0; i < draws; ++i) {
            a.uniform();
            b.uniform();
        }
        auto wa = a.stateWords();
        auto wb = b.stateWords();
        EXPECT_TRUE(std::equal(wa.begin(), wa.end(), wb.begin(), wb.end()));
        EXPECT_EQ(a.statePosition(), b.statePosition());
    }
    Rng c = a;
    c.uniform();
    auto wa = a.stateWords();
    auto wc = c.stateWords();
    EXPECT_FALSE(std::equal(wa.begin(), wa.end(), wc.begin(), wc.end()) &&
                 a.statePosition() == c.statePosition());
    // Reading the state never advances the engine.
    EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(SplitMix64Test, IsDeterministicAndMixes)
{
    EXPECT_EQ(splitmix64(1), splitmix64(1));
    EXPECT_NE(splitmix64(1), splitmix64(2));
    // Adjacent inputs should produce wildly different outputs.
    uint64_t diff = splitmix64(100) ^ splitmix64(101);
    int bits = __builtin_popcountll(diff);
    EXPECT_GT(bits, 16);
}

}  // namespace
}  // namespace approxhadoop
