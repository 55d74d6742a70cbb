#ifndef ARIEL_UTIL_ENV_H_
#define ARIEL_UTIL_ENV_H_

#include <cstddef>
#include <limits>
#include <optional>
#include <string_view>

namespace ariel {

/// Largest worker-thread count an environment knob may ask for
/// (ARIEL_MATCH_THREADS). Larger values are malformed, not clamped: a typo
/// must not start thousands of threads.
inline constexpr size_t kMaxEnvThreads = 256;

/// Parses `text` as a plain unsigned decimal no greater than `max`. Empty
/// text, a sign, whitespace, trailing junk, overflow, and values above
/// `max` are malformed and yield nullopt.
std::optional<size_t> ParseSize(
    std::string_view text, size_t max = std::numeric_limits<size_t>::max());

/// The environment variable `name` parsed by ParseSize, or `fallback` when
/// it is unset or malformed. Shared by every numeric ARIEL_* knob.
size_t EnvSizeOr(const char* name, size_t fallback,
                 size_t max = std::numeric_limits<size_t>::max());

}  // namespace ariel

#endif  // ARIEL_UTIL_ENV_H_
