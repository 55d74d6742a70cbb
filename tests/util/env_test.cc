// The one parser behind every numeric ARIEL_* environment knob. These tests
// call the parser only: a malformed or oversized thread count must be
// rejected before anything could size a thread pool from it.

#include "util/env.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace ariel {
namespace {

TEST(EnvParseTest, AcceptsPlainDecimal) {
  EXPECT_EQ(ParseSize("0"), 0u);
  EXPECT_EQ(ParseSize("42"), 42u);
  EXPECT_EQ(ParseSize("18446744073709551615"), 18446744073709551615ull);
}

TEST(EnvParseTest, NegativeIsMalformed) {
  // strtoull would read "-1" as ULLONG_MAX.
  EXPECT_EQ(ParseSize("-1"), std::nullopt);
  EXPECT_EQ(ParseSize("-0"), std::nullopt);
  EXPECT_EQ(ParseSize("+1"), std::nullopt);
}

TEST(EnvParseTest, OverflowIsMalformed) {
  EXPECT_EQ(ParseSize("18446744073709551616"), std::nullopt);
  EXPECT_EQ(ParseSize("99999999999999999999999"), std::nullopt);
}

TEST(EnvParseTest, TrailingJunkAndEmptyAreMalformed) {
  EXPECT_EQ(ParseSize("12abc"), std::nullopt);
  EXPECT_EQ(ParseSize(""), std::nullopt);
  EXPECT_EQ(ParseSize(" 4"), std::nullopt);
  EXPECT_EQ(ParseSize("4 "), std::nullopt);
  EXPECT_EQ(ParseSize("abc"), std::nullopt);
}

TEST(EnvParseTest, ThreadCountAboveCapIsMalformed) {
  EXPECT_EQ(ParseSize(std::to_string(kMaxEnvThreads), kMaxEnvThreads),
            kMaxEnvThreads);
  EXPECT_EQ(ParseSize(std::to_string(kMaxEnvThreads + 1), kMaxEnvThreads),
            std::nullopt);
  EXPECT_EQ(ParseSize("100000", kMaxEnvThreads), std::nullopt);
}

TEST(EnvParseTest, MalformedEnvValueKeepsDefault) {
  // A variable no engine code reads, so nothing but the parser sees it.
  const char* name = "ARIEL_ENV_TEST_KNOB";
  ::unsetenv(name);
  EXPECT_EQ(EnvSizeOr(name, 7), 7u);
  for (const char* bad : {"-1", "18446744073709551616", "12abc", ""}) {
    ::setenv(name, bad, 1);
    EXPECT_EQ(EnvSizeOr(name, 7), 7u) << '"' << bad << '"';
  }
  ::setenv(name, "100000", 1);
  EXPECT_EQ(EnvSizeOr(name, 7, kMaxEnvThreads), 7u);
  ::setenv(name, "3", 1);
  EXPECT_EQ(EnvSizeOr(name, 7, kMaxEnvThreads), 3u);
  ::unsetenv(name);
}

}  // namespace
}  // namespace ariel
