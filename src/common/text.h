#ifndef APPROXHADOOP_COMMON_TEXT_H_
#define APPROXHADOOP_COMMON_TEXT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace approxhadoop {

/**
 * Splits @p s on @p sep, keeping empty fields: "a,,b" gives
 * {"a", "", "b"}, "a," gives {"a", ""}, and "" gives {""}. Grammars rely
 * on the empty fields to reject "10xeon+" or "crash=0.1,," loudly.
 */
std::vector<std::string> split(std::string_view s, char sep);

/**
 * Strict decimal number: the whole token must be a finite decimal
 * (optionally signed with '-', with an optional exponent). Rejects the
 * empty token, leading whitespace, a leading '+', hex, "nan", "inf",
 * trailing garbage, overflow, and underflow to zero, so a typo can never
 * turn into a silently different experiment.
 */
std::optional<double> parseDouble(std::string_view text);

/**
 * Strict decimal unsigned integer: digits only (no sign, no
 * whitespace), the whole token, within uint64_t.
 */
std::optional<uint64_t> parseUint64(std::string_view text);

/**
 * Shortest decimal form of @p v that parseDouble() reads back
 * bit-identically, as written into spec strings (fault plans,
 * reproducer commands). Integral values below 1e15 print as integers
 * ("500", not "5e+02"); exponent notation is used only when no fixed
 * form round-trips, and its exponent never carries a '+' ("1e300"),
 * which would collide with the `T+D` duration separator.
 */
std::string formatSpecNumber(double v);

/**
 * Writes @p content to @p path, replacing the file. Returns false, with
 * errno describing the failure, when the file cannot be opened, the
 * write comes up short, or closing (the final flush) fails.
 */
bool writeFile(const std::string& path, std::string_view content);

}  // namespace approxhadoop

#endif  // APPROXHADOOP_COMMON_TEXT_H_
