#include "common/text.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace approxhadoop {

std::vector<std::string>
split(std::string_view s, char sep)
{
    std::vector<std::string> parts;
    for (;;) {
        size_t end = s.find(sep);
        parts.emplace_back(s.substr(0, end));
        if (end == std::string_view::npos) {
            return parts;
        }
        s.remove_prefix(end + 1);
    }
}

std::optional<double>
parseDouble(std::string_view text)
{
    // from_chars takes no leading whitespace or '+', reads no hex in
    // general format, and reports overflow and underflow to zero as
    // result_out_of_range.
    double v = 0.0;
    auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc() || end != text.data() + text.size() ||
        !std::isfinite(v)) {
        return std::nullopt;
    }
    return v;
}

std::optional<uint64_t>
parseUint64(std::string_view text)
{
    uint64_t v = 0;
    auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc() || end != text.data() + text.size()) {
        return std::nullopt;
    }
    return v;
}

std::string
formatSpecNumber(double v)
{
    char buf[64];
    // Range first: casting an out-of-range double to long long is UB.
    if (v > -1e15 && v < 1e15 &&
        v == static_cast<double>(static_cast<long long>(v))) {
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
        return buf;
    }
    for (int precision = 1; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
        if (parseDouble(buf) == v && std::strchr(buf, 'e') == nullptr) {
            return buf;
        }
    }
    for (int precision = 1; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
        if (parseDouble(buf) == v) {
            break;
        }
    }
    std::string out = buf;
    size_t plus = out.find("e+");
    if (plus != std::string::npos) {
        out.erase(plus + 1, 1);
    }
    return out;
}

bool
writeFile(const std::string& path, std::string_view content)
{
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        return false;
    }
    bool written =
        std::fwrite(content.data(), 1, content.size(), f) == content.size();
    int write_errno = errno;
    bool closed = std::fclose(f) == 0;
    if (!written) {
        errno = write_errno;
    }
    return written && closed;
}

}  // namespace approxhadoop
