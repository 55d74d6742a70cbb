// AST-level read-only classification: TraitsOf/IsReadOnlyCommand decide —
// from the parse tree alone, no catalog access — whether a command takes
// the engine's const read path. The table below is the contract the
// database's routing trusts.

#include "parser/ast.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "parser/parser.h"
#include "test_util.h"

namespace ariel {
namespace {

// Parses exactly one command.
CommandPtr One(const std::string& text) {
  auto commands = ParseScript(text);
  EXPECT_OK(commands.status());
  if (!commands.ok() || commands->size() != 1) return nullptr;
  return std::move(commands->front());
}

TEST(CommandTraitsTest, PlainRetrieveIsReadOnly) {
  CommandPtr cmd = One("retrieve (emp.name) where emp.sal > 10.0");
  ASSERT_NE(cmd, nullptr);
  EXPECT_TRUE(TraitsOf(*cmd).read_only);
  EXPECT_FALSE(TraitsOf(*cmd).touches_sys_catalog);
  EXPECT_TRUE(IsReadOnlyCommand(*cmd));
}

TEST(CommandTraitsTest, RetrieveIntoCreatesARelation) {
  CommandPtr cmd = One("retrieve into rich (emp.name) where emp.sal > 10.0");
  ASSERT_NE(cmd, nullptr);
  EXPECT_FALSE(TraitsOf(*cmd).read_only);
  EXPECT_FALSE(IsReadOnlyCommand(*cmd));
}

TEST(CommandTraitsTest, SysCatalogRetrieveStaysSerialized) {
  // Ranging over a sys* snapshot forces a catalog refresh (a mutation)
  // before the scan, so the command is a read but skips the const path.
  CommandPtr from_list = One("retrieve (sysrelations.all)");
  ASSERT_NE(from_list, nullptr);
  EXPECT_TRUE(TraitsOf(*from_list).read_only);
  EXPECT_TRUE(TraitsOf(*from_list).touches_sys_catalog);
  EXPECT_FALSE(IsReadOnlyCommand(*from_list));

  // The sniff also covers tuple variables used in targets/qualification.
  CommandPtr in_where =
      One("retrieve (emp.name) where emp.name = sysrules.name");
  ASSERT_NE(in_where, nullptr);
  EXPECT_TRUE(TraitsOf(*in_where).touches_sys_catalog);
  EXPECT_FALSE(IsReadOnlyCommand(*in_where));
}

TEST(CommandTraitsTest, MutationsAreNeverReadOnly) {
  const char* mutations[] = {
      "append emp (name=\"a\", sal=1.0)",
      "delete emp where emp.sal > 10.0",
      "replace emp (sal=2.0) where emp.sal > 10.0",
      "create emp2 (name = string)",
      "define rule watch\nif emp.sal > 100\nthen delete emp",
      "activate rule watch",
      "deactivate rule watch",
      "drop rule watch",
      "begin",
      "commit",
      "abort",
  };
  for (const char* text : mutations) {
    CommandPtr cmd = One(text);
    ASSERT_NE(cmd, nullptr) << text;
    EXPECT_FALSE(IsReadOnlyCommand(*cmd)) << text;
  }
}

TEST(CommandTraitsTest, ShowStatsReadOnlyUnlessReset) {
  CommandPtr plain = One("show stats");
  ASSERT_NE(plain, nullptr);
  EXPECT_TRUE(IsReadOnlyCommand(*plain));

  CommandPtr reset = One("show stats reset");
  ASSERT_NE(reset, nullptr);
  EXPECT_FALSE(IsReadOnlyCommand(*reset));
}

TEST(CommandTraitsTest, RuleIntrospectionIsReadOnly) {
  CommandPtr explain = One("explain rule watch");
  ASSERT_NE(explain, nullptr);
  EXPECT_TRUE(IsReadOnlyCommand(*explain));

  CommandPtr analyze = One("analyze rules");
  ASSERT_NE(analyze, nullptr);
  EXPECT_TRUE(IsReadOnlyCommand(*analyze));
}

TEST(CommandTraitsTest, BlockIsNeverReadOnly) {
  // `do … end` brackets a transition on the engine thread by definition,
  // even when every member is a retrieve.
  CommandPtr block = One("do\nretrieve (emp.name)\nend");
  ASSERT_NE(block, nullptr);
  EXPECT_FALSE(IsReadOnlyCommand(*block));
}

}  // namespace
}  // namespace ariel
