#ifndef ARIEL_PARSER_AST_H_
#define ARIEL_PARSER_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "types/value.h"

namespace ariel {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class BinaryOp : uint8_t {
  kAdd, kSub, kMul, kDiv,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

enum class UnaryOp : uint8_t { kNot, kNeg };

const char* BinaryOpToString(BinaryOp op);

/// True for =, !=, <, <=, >, >=.
bool IsComparison(BinaryOp op);

/// Flips a comparison for operand swap: < becomes >, <= becomes >=, etc.
BinaryOp MirrorComparison(BinaryOp op);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class ExprKind : uint8_t {
  kLiteral, kColumnRef, kBinary, kUnary, kNew, kAggregate,
};

/// Base of the expression tree. The tree is shaped by the parser and
/// rewritten (cloned) by query modification; binding to physical slots
/// happens in the executor's Binder.
struct Expr {
  explicit Expr(ExprKind kind) : kind(kind) {}
  virtual ~Expr() = default;

  ExprKind kind;

  virtual ExprPtr Clone() const = 0;
  /// Renders source-equivalent text (used by the rule catalog and tests;
  /// parse(print(e)) must reproduce the tree).
  virtual std::string ToString() const = 0;
};

struct LiteralExpr : Expr {
  explicit LiteralExpr(Value value)
      : Expr(ExprKind::kLiteral), value(std::move(value)) {}

  Value value;

  ExprPtr Clone() const override {
    return std::make_unique<LiteralExpr>(value);
  }
  std::string ToString() const override { return value.ToString(); }
};

/// `tv.attr`, `previous tv.attr`, or the whole-tuple form `tv.all`.
/// After query modification, references to P-node columns use
/// tuple_var = "p" and a dotted attribute like "emp.sal" or
/// "emp.previous.sal" (printed back as `P.emp.sal`).
struct ColumnRefExpr : Expr {
  ColumnRefExpr(std::string tuple_var, std::string attribute,
                bool previous = false)
      : Expr(ExprKind::kColumnRef),
        tuple_var(std::move(tuple_var)),
        attribute(std::move(attribute)),
        previous(previous) {}

  std::string tuple_var;
  std::string attribute;  // "all" means the whole tuple (emp.all)
  bool previous;

  bool is_all() const { return attribute == "all"; }

  ExprPtr Clone() const override {
    return std::make_unique<ColumnRefExpr>(tuple_var, attribute, previous);
  }
  std::string ToString() const override;
};

struct BinaryExpr : Expr {
  BinaryExpr(BinaryOp op, ExprPtr lhs, ExprPtr rhs)
      : Expr(ExprKind::kBinary), op(op), lhs(std::move(lhs)),
        rhs(std::move(rhs)) {}

  BinaryOp op;
  ExprPtr lhs;
  ExprPtr rhs;

  ExprPtr Clone() const override {
    return std::make_unique<BinaryExpr>(op, lhs->Clone(), rhs->Clone());
  }
  std::string ToString() const override;
};

struct UnaryExpr : Expr {
  UnaryExpr(UnaryOp op, ExprPtr operand)
      : Expr(ExprKind::kUnary), op(op), operand(std::move(operand)) {}

  UnaryOp op;
  ExprPtr operand;

  ExprPtr Clone() const override {
    return std::make_unique<UnaryExpr>(op, operand->Clone());
  }
  std::string ToString() const override;
};

/// `new(tv)` — the always-true selection condition of §2.1, used to wake a
/// rule for every new tuple value in a relation.
struct NewExpr : Expr {
  explicit NewExpr(std::string tuple_var)
      : Expr(ExprKind::kNew), tuple_var(std::move(tuple_var)) {}

  std::string tuple_var;

  ExprPtr Clone() const override {
    return std::make_unique<NewExpr>(tuple_var);
  }
  std::string ToString() const override { return "new(" + tuple_var + ")"; }
};

enum class AggFunc : uint8_t { kCount, kSum, kAvg, kMin, kMax };

const char* AggFuncToString(AggFunc func);

/// An aggregate over the qualified result set: `count(v)`, `sum(v.attr)`,
/// `avg(...)`, `min(...)`, `max(...)`. Valid only as a retrieve target
/// (there is no grouping; the result is a single row). `operand` is null
/// for the count(tuple-variable) form.
struct AggregateExpr : Expr {
  AggregateExpr(AggFunc func, std::string tuple_var, ExprPtr operand)
      : Expr(ExprKind::kAggregate),
        func(func),
        tuple_var(std::move(tuple_var)),
        operand(std::move(operand)) {}

  AggFunc func;
  std::string tuple_var;  // count(v) form only; empty otherwise
  ExprPtr operand;        // null for count(v)

  ExprPtr Clone() const override {
    return std::make_unique<AggregateExpr>(
        func, tuple_var, operand ? operand->Clone() : nullptr);
  }
  std::string ToString() const override;
};

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

/// One entry of a from-list: `var in relation`. A relation name used
/// directly as a tuple variable parses as {var == relation}.
struct FromItem {
  std::string var;
  std::string relation;

  bool operator==(const FromItem& other) const = default;
};

/// `attr = expr` in append/replace target lists, or a retrieve target
/// (where `name` may be empty, meaning "derive from the expression").
struct Assignment {
  std::string name;
  ExprPtr expr;

  Assignment(std::string name, ExprPtr expr)
      : name(std::move(name)), expr(std::move(expr)) {}
  Assignment Clone() const { return Assignment(name, expr->Clone()); }
};

enum class CommandKind : uint8_t {
  kCreate, kDestroy, kDefineIndex,
  kRetrieve, kAppend, kDelete, kReplace,
  kBlock, kDefineRule, kActivateRule, kDeactivateRule, kRemoveRule,
  kHalt,
  kBeginTxn, kCommitTxn, kAbortTxn,
  kShowStats, kExplainRule, kAnalyzeRules,
};

struct Command {
  explicit Command(CommandKind kind) : kind(kind) {}
  virtual ~Command() = default;

  CommandKind kind;

  virtual std::unique_ptr<Command> Clone() const = 0;
  virtual std::string ToString() const = 0;
};

using CommandPtr = std::unique_ptr<Command>;

struct CreateCommand : Command {
  CreateCommand() : Command(CommandKind::kCreate) {}

  std::string relation;
  std::vector<std::pair<std::string, DataType>> attributes;

  CommandPtr Clone() const override;
  std::string ToString() const override;
};

struct DestroyCommand : Command {
  DestroyCommand() : Command(CommandKind::kDestroy) {}

  std::string relation;

  CommandPtr Clone() const override;
  std::string ToString() const override;
};

/// `define index on rel (attr)` — an extension command; Ariel's design
/// anticipated B-trees (§6) and the optimizer uses them when present.
struct DefineIndexCommand : Command {
  DefineIndexCommand() : Command(CommandKind::kDefineIndex) {}

  std::string relation;
  std::string attribute;

  CommandPtr Clone() const override;
  std::string ToString() const override;
};

struct RetrieveCommand : Command {
  RetrieveCommand() : Command(CommandKind::kRetrieve) {}

  /// `retrieve into <relation> (...)`: materialize the result as a new
  /// relation (POSTQUEL utility form). Empty = plain retrieve.
  std::string into;
  std::vector<Assignment> targets;
  std::vector<FromItem> from;
  ExprPtr qualification;  // may be null

  CommandPtr Clone() const override;
  std::string ToString() const override;
};

struct AppendCommand : Command {
  AppendCommand() : Command(CommandKind::kAppend) {}

  std::string relation;
  std::vector<Assignment> targets;
  std::vector<FromItem> from;
  ExprPtr qualification;  // may be null

  CommandPtr Clone() const override;
  std::string ToString() const override;
};

struct DeleteCommand : Command {
  DeleteCommand() : Command(CommandKind::kDelete) {}

  /// Tuple variable whose bindings are deleted.
  std::string target_var;
  std::vector<FromItem> from;
  ExprPtr qualification;  // may be null
  /// True for the internal delete' form produced by query modification:
  /// target tuples are located by TIDs carried in the P-node (§5.1).
  bool primed = false;

  CommandPtr Clone() const override;
  std::string ToString() const override;
};

struct ReplaceCommand : Command {
  ReplaceCommand() : Command(CommandKind::kReplace) {}

  std::string target_var;
  std::vector<Assignment> targets;
  std::vector<FromItem> from;
  ExprPtr qualification;  // may be null
  /// True for the internal replace' form (see DeleteCommand::primed).
  bool primed = false;

  CommandPtr Clone() const override;
  std::string ToString() const override;
};

/// `do cmd; cmd; ... end` — groups commands into a single transition
/// (§2.2.1). Blocks may not nest.
struct BlockCommand : Command {
  BlockCommand() : Command(CommandKind::kBlock) {}

  std::vector<CommandPtr> commands;

  CommandPtr Clone() const override;
  std::string ToString() const override;
};

enum class EventKind : uint8_t { kAppend, kDelete, kReplace };

const char* EventKindToString(EventKind kind);

/// The `on` clause of a rule: `on append to emp`,
/// `on replace to emp (sal, dno)`, ...
struct EventSpec {
  EventKind kind = EventKind::kAppend;
  std::string relation;
  /// For replace: attributes that must be among the updated fields for the
  /// event to match; empty = any replace.
  std::vector<std::string> attributes;

  std::string ToString() const;
};

struct DefineRuleCommand : Command {
  DefineRuleCommand() : Command(CommandKind::kDefineRule) {}

  std::string rule_name;
  std::string ruleset;              // empty = "default_rules"
  std::optional<double> priority;   // default 0
  std::optional<EventSpec> event;   // the on clause
  ExprPtr condition;                // the if clause; may be null
  std::vector<FromItem> from;       // from-list of the condition
  std::vector<CommandPtr> action;   // one command, or the body of do..end

  CommandPtr Clone() const override;
  std::string ToString() const override;
};

struct ActivateRuleCommand : Command {
  ActivateRuleCommand() : Command(CommandKind::kActivateRule) {}
  std::string rule_name;
  /// True for `activate ruleset <name>`: applies to every rule grouped in
  /// the named ruleset (§2.1's rulesets, with lifecycle management).
  bool is_ruleset = false;
  CommandPtr Clone() const override;
  std::string ToString() const override;
};

struct DeactivateRuleCommand : Command {
  DeactivateRuleCommand() : Command(CommandKind::kDeactivateRule) {}
  std::string rule_name;
  bool is_ruleset = false;
  CommandPtr Clone() const override;
  std::string ToString() const override;
};

struct RemoveRuleCommand : Command {
  RemoveRuleCommand() : Command(CommandKind::kRemoveRule) {}
  std::string rule_name;
  CommandPtr Clone() const override;
  std::string ToString() const override;
};

/// `halt` — stops the recognize-act cycle (Figure 1).
struct HaltCommand : Command {
  HaltCommand() : Command(CommandKind::kHalt) {}
  CommandPtr Clone() const override {
    return std::make_unique<HaltCommand>();
  }
  std::string ToString() const override { return "halt"; }
};

/// `begin` — opens an explicit transaction: subsequent commands (and their
/// rule cascades) accumulate in one undo scope until `commit` discards it
/// or `abort` replays it. Transactions do not nest.
struct BeginTxnCommand : Command {
  BeginTxnCommand() : Command(CommandKind::kBeginTxn) {}
  CommandPtr Clone() const override {
    return std::make_unique<BeginTxnCommand>();
  }
  std::string ToString() const override { return "begin"; }
};

/// `commit` — closes the open explicit transaction, keeping its effects.
struct CommitTxnCommand : Command {
  CommitTxnCommand() : Command(CommandKind::kCommitTxn) {}
  CommandPtr Clone() const override {
    return std::make_unique<CommitTxnCommand>();
  }
  std::string ToString() const override { return "commit"; }
};

/// `abort` — rolls the open explicit transaction back: storage, catalog,
/// α-memories, join indexes, conflict sets, and rule firing counters return
/// to their state at `begin`.
struct AbortTxnCommand : Command {
  AbortTxnCommand() : Command(CommandKind::kAbortTxn) {}
  CommandPtr Clone() const override {
    return std::make_unique<AbortTxnCommand>();
  }
  std::string ToString() const override { return "abort"; }
};

/// `show stats [reset]` — dumps the engine metrics registry and the recent
/// rule-firing trace; with `reset`, zeroes them after rendering.
struct ShowStatsCommand : Command {
  ShowStatsCommand() : Command(CommandKind::kShowStats) {}
  bool reset = false;
  CommandPtr Clone() const override {
    auto clone = std::make_unique<ShowStatsCommand>();
    clone->reset = reset;
    return clone;
  }
  std::string ToString() const override {
    return reset ? "show stats reset" : "show stats";
  }
};

/// `explain rule <name>` — renders the rule's A-TREAT network plus the
/// selection layer's indexed/residual classification and per-node lifetime
/// counters.
struct ExplainRuleCommand : Command {
  ExplainRuleCommand() : Command(CommandKind::kExplainRule) {}
  std::string rule_name;
  CommandPtr Clone() const override {
    auto clone = std::make_unique<ExplainRuleCommand>();
    clone->rule_name = rule_name;
    return clone;
  }
  std::string ToString() const override { return "explain rule " + rule_name; }
};

/// `analyze rules` — runs the static rule-set analyzer (trigger graph,
/// termination / stratification / confluence / dead-rule checks) over the
/// installed rule catalog and renders the report with per-rule match-cost
/// annotations.
struct AnalyzeRulesCommand : Command {
  AnalyzeRulesCommand() : Command(CommandKind::kAnalyzeRules) {}
  CommandPtr Clone() const override {
    return std::make_unique<AnalyzeRulesCommand>();
  }
  std::string ToString() const override { return "analyze rules"; }
};

// ---------------------------------------------------------------------------
// Command classification
// ---------------------------------------------------------------------------

/// Static, AST-level classification of one parsed command — computed without
/// touching the catalog. The executor/database read path trusts this: a
/// command whose traits say `read_only` must take only const engine entry
/// points.
struct CommandTraits {
  /// Never mutates relations, the catalog, rule state, transaction state,
  /// or the metrics registry. `retrieve into` is NOT read-only (it creates
  /// a relation); `show stats reset` is NOT read-only (it swaps the metrics
  /// epoch); `halt` is NOT (it interacts with the recognize-act cycle).
  bool read_only = false;
  /// A retrieve ranging over a sys* catalog relation: the engine refreshes
  /// the system-catalog snapshots (a mutation) before answering, so these
  /// stay on the transacted path even though the command text is a read.
  bool touches_sys_catalog = false;
};

/// Classifies one command. kBlock is never read-only: `do … end` brackets
/// a transition on the engine thread by definition.
CommandTraits TraitsOf(const Command& command);

/// True when the command takes the const read path
/// (Database::ExecuteReadOnly): read-only AND no sys-catalog refresh needed.
bool IsReadOnlyCommand(const Command& command);

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Splits a qualification into its top-level AND conjuncts (cloned).
/// Used by the rule compiler to classify selection vs. join predicates.
std::vector<ExprPtr> SplitConjuncts(const Expr& qual);

/// Rebuilds a conjunction from conjuncts (null for empty input).
ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts);

/// Collects the distinct tuple-variable names referenced in an expression
/// (in first-appearance order), including via `previous` and `new()`.
std::vector<std::string> CollectTupleVars(const Expr& expr);

/// True if the expression mentions `previous` anywhere.
bool MentionsPrevious(const Expr& expr);

}  // namespace ariel

#endif  // ARIEL_PARSER_AST_H_
