#include "util/env.h"

#include <charconv>
#include <cstdlib>

namespace ariel {

std::optional<size_t> ParseSize(std::string_view text, size_t max) {
  // from_chars takes no sign and no leading whitespace for an unsigned
  // type, and reports overflow as result_out_of_range.
  size_t value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || value > max) {
    return std::nullopt;
  }
  return value;
}

size_t EnvSizeOr(const char* name, size_t fallback, size_t max) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  return ParseSize(raw, max).value_or(fallback);
}

}  // namespace ariel
