#include "calibrate.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>

namespace repobench {

namespace {

/** Access-log-like text lines parsed and grouped per pass. */
constexpr int kTextLines = 40000;
constexpr uint32_t kTextKeys = 2600;
constexpr int kMixRounds = 4000000;

uint64_t
splitmix(uint64_t& state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Formats text records, splits and parses them, and groups the values
 *  by key in a hash map of vectors. */
uint64_t
textPass()
{
    uint64_t rng = 7;
    std::string text;
    text.reserve(static_cast<size_t>(kTextLines) * 32);
    char line[64];
    for (int i = 0; i < kTextLines; ++i) {
        uint64_t r = splitmix(rng);
        int n = std::snprintf(line, sizeof(line), "p%u /w/%u %u\n",
                              static_cast<unsigned>(r % kTextKeys),
                              static_cast<unsigned>((r >> 20) % 100000),
                              static_cast<unsigned>((r >> 40) % 5000));
        text.append(line, static_cast<size_t>(n));
    }
    std::unordered_map<std::string, std::vector<uint32_t>> groups;
    std::string_view rest = text;
    while (!rest.empty()) {
        size_t eol = rest.find('\n');
        std::string_view rec = rest.substr(0, eol);
        rest.remove_prefix(eol + 1);
        size_t sp = rec.find(' ');
        size_t sp2 = rec.rfind(' ');
        uint32_t value = static_cast<uint32_t>(
            std::strtoul(std::string(rec.substr(sp2 + 1)).c_str(), nullptr,
                         10));
        groups[std::string(rec.substr(0, sp))].push_back(value);
    }
    std::vector<std::string> keys;
    keys.reserve(groups.size());
    uint64_t sum = 0;
    for (const auto& [key, values] : groups) {
        keys.push_back(key);
        for (uint32_t v : values) {
            sum += v;
        }
    }
    std::sort(keys.begin(), keys.end());
    return sum * 31 + keys.size() + keys.front().size();
}

uint64_t
runKernel()
{
    uint64_t state = 3;
    uint64_t mixed = 0;
    for (int i = 0; i < kMixRounds; ++i) {
        mixed ^= splitmix(state);
    }
    return textPass() * 31 + mixed;
}

}  // namespace

double
trimmedMean(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    size_t cut =
        values.size() >= 3 ? std::max<size_t>(1, values.size() / 10) : 0;
    double sum = 0.0;
    for (size_t i = cut; i < values.size() - cut; ++i) {
        sum += values[i];
    }
    return sum / static_cast<double>(values.size() - 2 * cut);
}

HostCalibration::HostCalibration(uint32_t threads)
    : threads_(threads), checksum_(runPass())
{
}

uint64_t
HostCalibration::runPass() const
{
    std::vector<uint64_t> digests(threads_);
    std::vector<std::thread> others;
    for (uint32_t t = 1; t < threads_; ++t) {
        others.emplace_back([&digests, t] { digests[t] = runKernel(); });
    }
    digests[0] = runKernel();
    uint64_t sum = digests[0];
    for (uint32_t t = 1; t < threads_; ++t) {
        others[t - 1].join();
        sum += digests[t];
    }
    return sum;
}

void
HostCalibration::measure()
{
    auto t0 = std::chrono::steady_clock::now();
    checksum_ = runPass();
    record(std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
               .count());
}

void
HostCalibration::record(double ms)
{
    ms_.push_back(ms);
    total_ms_ += ms;
}

double
HostCalibration::typicalMs() const
{
    return trimmedMean(ms_);
}

double
HostCalibration::scale() const
{
    return kReferenceMs / typicalMs();
}

}  // namespace repobench
