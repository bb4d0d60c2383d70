#include "common/random.h"

#include <algorithm>
#include <cassert>
#include <random>
#include <unordered_set>

namespace approxhadoop {

namespace {

constexpr size_t kN = LazyMt19937_64::kStateWords;
constexpr size_t kM = 156;
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
constexpr uint64_t kLowerMask = ~kUpperMask;

/** Twists word @p k in place, as std::mt19937_64's generation step does:
 *  it reads words k, k+1 and k+m (mod n), whichever state they are in. */
inline void
twistWord(uint64_t* x, size_t k)
{
    uint64_t y = (x[k] & kUpperMask) | (x[(k + 1) % kN] & kLowerMask);
    x[k] = x[(k + kM) % kN] ^ (y >> 1) ^
           ((y & 1) ? 0xb5026f5aa96619e9ULL : 0);
}

}  // namespace

LazyMt19937_64::result_type
LazyMt19937_64::refill()
{
    if (pos_ == kN) {
        // Steady state: regenerate every word, as std::mt19937_64 does.
        for (size_t k = 0; k < kN; ++k) {
            twistWord(x_, k);
        }
        ready_ = kN;
        pos_ = 0;
    } else {
        // First generation: word k = pos_ reads seed words k+1 and (for
        // k < n-m) k+m, so run the seeding recurrence that far (capped at
        // n), then twist just that word.
        size_t need = std::min(pos_ + kM + 1, kN);
        size_t i = seeded_;
        uint64_t prev = x_[i - 1];
        for (; i < need; ++i) {
            prev = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
            x_[i] = prev;
        }
        seeded_ = i;
        twistWord(x_, pos_);
        ready_ = pos_ + 1;
    }
    return temper(x_[pos_++]);
}

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

Rng::Rng(uint64_t seed) : engine_(splitmix64(seed)) {}

double
Rng::uniform()
{
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double
Rng::uniform(double lo, double hi)
{
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

uint64_t
Rng::uniformInt(uint64_t n)
{
    assert(n > 0);
    return std::uniform_int_distribution<uint64_t>(0, n - 1)(engine_);
}

bool
Rng::bernoulli(double p)
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
Rng::normal(double mean, double stddev)
{
    return std::normal_distribution<double>(mean, stddev)(engine_);
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
}

double
Rng::exponential(double rate)
{
    return std::exponential_distribution<double>(rate)(engine_);
}

Rng
Rng::derive(uint64_t stream)
{
    uint64_t base = engine_();
    return Rng(splitmix64(base ^ splitmix64(stream)));
}

std::vector<uint64_t>
Rng::sampleWithoutReplacement(uint64_t n, uint64_t k)
{
    assert(k <= n);
    // Floyd's algorithm: k iterations, each adding exactly one new element.
    std::unordered_set<uint64_t> chosen;
    std::vector<uint64_t> result;
    result.reserve(k);
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

}  // namespace approxhadoop
