// Randomized end-to-end soak: a stream of arbitrary commands against a
// database with active, mutating rules. After every command the engine must
// be quiescent (the recognize-act cycle ran to completion), which yields
// checkable invariants:
//   - every active rule's P-node is empty (all instantiations consumed),
//   - the integrity rules' guarantees hold in the data: t.x clamped into
//     [0, 50], no u row with the forbidden value,
//   - the mirror rule kept its audit count consistent with the number of
//     logical appends.
// Runs across join backends and α-memory policies.

#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "test_util.h"

#include "ariel/database.h"
#include "util/random.h"

namespace ariel {
namespace {

struct SoakParams {
  const char* name;
  JoinBackend backend;
  AlphaMemoryPolicy::Mode mode;
  bool cache_plans;
  uint64_t seed;
};

// Prints a config by name. The default printer dumps the struct's raw bytes,
// a pointer and padding among them, so the printed value (and the test name
// that embeds it) would change from run to run.
void PrintTo(const SoakParams& params, std::ostream* os) { *os << params.name; }

class SoakTest : public ::testing::TestWithParam<SoakParams> {};

TEST_P(SoakTest, RandomCommandStreamKeepsInvariants) {
  const SoakParams params = GetParam();
  DatabaseOptions options;
  options.join_backend = params.backend;
  options.alpha_policy.mode = params.mode;
  options.alpha_policy.virtual_threshold = 8;
  options.cache_action_plans = params.cache_plans;
  Database db(options);

  auto ok = [&](const std::string& cmd) {
    auto result = db.Execute(cmd);
    ASSERT_TRUE(result.ok()) << cmd << " -> " << result.status().ToString();
  };

  ok("create t (x = int, y = int)");
  ok("create u (x = int)");
  ok("create audit (x = int)");
  // Integrity pair: clamp x into [0, 50]. Priorities make clamping
  // deterministic relative to the mirror rule.
  ok("define rule clamp_hi priority 10 if t.x > 50 then replace t (x = 50)");
  ok("define rule clamp_lo priority 10 if t.x < 0 then replace t (x = 0)");
  // Event rule: mirror every logical append into audit.
  ok("define rule mirror priority 5 on append t "
     "then append to audit (x = t.x)");
  // Forbidden-value rule on u.
  ok("define rule no13 if u.x = 13 then delete u");

  Random rng(params.seed);
  size_t logical_appends = 0;
  const int kCommands = 250;
  for (int i = 0; i < kCommands; ++i) {
    int choice = static_cast<int>(rng.Uniform(100));
    int64_t v = rng.UniformRange(-20, 70);
    if (choice < 35) {
      ok("append t (x = " + std::to_string(v) + ", y = " +
         std::to_string(i) + ")");
      ++logical_appends;
    } else if (choice < 50) {
      ok("append u (x = " + std::to_string(rng.UniformRange(0, 20)) + ")");
    } else if (choice < 70) {
      ok("replace t (x = " + std::to_string(v) + ") where t.y = " +
         std::to_string(rng.UniformRange(0, i + 1)));
    } else if (choice < 80) {
      ok("delete t where t.y = " + std::to_string(rng.UniformRange(0, i + 1)));
    } else if (choice < 90) {
      ok("delete u where u.x = " + std::to_string(rng.UniformRange(0, 20)));
    } else {
      // A block: append then tweak — one transition, one logical append.
      ok("do\n"
         "  append t (x = " + std::to_string(v) + ", y = " +
         std::to_string(i) + ")\n"
         "  replace t (x = " + std::to_string(v / 2) + ") where t.y = " +
         std::to_string(i) + "\n"
         "end");
      ++logical_appends;
    }

    // Quiescence: every active rule consumed its instantiations.
    for (Rule* rule : db.rules().ActiveRules()) {
      ASSERT_TRUE(rule->network->pnode()->empty())
          << "rule " << rule->name << " not quiescent after: command " << i;
    }
    // Periodic full network audit: α-memories vs. recomputed selections,
    // P-node bindings, ISL stab consistency. (ARIEL_AUDIT builds also run
    // this inside the engine after every command.)
    if (i % 25 == 0) {
      auto violations = db.AuditNetwork();
      ASSERT_OK(violations);
      for (const AuditViolation& v : *violations) {
        ADD_FAILURE() << "audit violation after command " << i << ": "
                      << v.ToString();
      }
    }
    // Integrity guarantees.
    auto bad_t = db.Execute("retrieve (t.x) where t.x > 50 or t.x < 0");
    ASSERT_OK(bad_t);
    ASSERT_EQ(bad_t->rows->num_rows(), 0u) << "clamp violated at " << i;
    auto bad_u = db.Execute("retrieve (u.x) where u.x = 13");
    ASSERT_OK(bad_u);
    ASSERT_EQ(bad_u->rows->num_rows(), 0u) << "no13 violated at " << i;
  }

  // The mirror rule fired once per logical append to t.
  auto audit = db.Execute("retrieve (audit.all)");
  ASSERT_OK(audit);
  EXPECT_EQ(audit->rows->num_rows(), logical_appends);

  // Final full audit of the network state the stream left behind.
  auto final_audit = db.AuditNetwork();
  ASSERT_OK(final_audit);
  for (const AuditViolation& v : *final_audit) {
    ADD_FAILURE() << "audit violation at end of stream: " << v.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SoakTest,
    ::testing::Values(
        SoakParams{"treat_stored", JoinBackend::kTreat,
                   AlphaMemoryPolicy::Mode::kAllStored, false, 1},
        SoakParams{"treat_virtual", JoinBackend::kTreat,
                   AlphaMemoryPolicy::Mode::kAllVirtual, false, 2},
        SoakParams{"treat_adaptive_cached", JoinBackend::kTreat,
                   AlphaMemoryPolicy::Mode::kAdaptive, true, 3},
        SoakParams{"rete_stored", JoinBackend::kRete,
                   AlphaMemoryPolicy::Mode::kAllStored, false, 4},
        SoakParams{"rete_virtual_cached", JoinBackend::kRete,
                   AlphaMemoryPolicy::Mode::kAllVirtual, true, 5}),
    [](const ::testing::TestParamInfo<SoakParams>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace ariel
