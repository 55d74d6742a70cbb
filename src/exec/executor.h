#ifndef ARIEL_EXEC_EXECUTOR_H_
#define ARIEL_EXEC_EXECUTOR_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "exec/gateway.h"
#include "exec/optimizer.h"
#include "exec/result_set.h"
#include "parser/ast.h"
#include "util/status.h"

namespace ariel {

/// Outcome of executing one command: a result set for retrieve, a count of
/// affected tuples for mutations, nothing for DDL.
struct CommandResult {
  std::optional<ResultSet> rows;
  size_t affected = 0;
  /// Pre-rendered text for diagnostic commands (show stats, explain rule).
  std::string message;
};

/// Extra tuple-variable → relation bindings consulted before the catalog.
/// The rule execution monitor binds "p" to the firing rule's P-node here.
using ExtraBindings = std::unordered_map<std::string, const HeapRelation*>;

/// A reusable slot for the physical plan of one command — the paper's §5.3
/// stored-plan alternative to always-reoptimize. The plan is rebuilt when
/// the catalog version moves (relations or indexes changed); note the
/// trade-off the paper describes: a cached plan can become *suboptimal*
/// (not incorrect) as data volumes shift, because only schema changes
/// invalidate it.
struct CachedPlan {
  uint64_t catalog_version = 0;
  std::optional<Plan> plan;
};

/// Executes parsed commands against the catalog. All tuple mutations go
/// through the StorageGateway so the rule system observes them; the
/// Executor itself is rule-agnostic.
///
/// Handles: create, destroy, define index, retrieve, append, delete,
/// replace (including the primed forms produced by query modification).
/// Rule definition/administration, blocks, and halt belong to the engine
/// layer (ariel::Database).
class Executor {
 public:
  Executor(Catalog* catalog, StorageGateway* gateway, Optimizer* optimizer)
      : catalog_(catalog), gateway_(gateway), optimizer_(optimizer) {}

  /// Executes a command. When `plan_cache` is non-null, the row-producing
  /// plan is taken from / stored into that slot instead of being rebuilt
  /// (the rule monitor passes per-action-command slots when the engine is
  /// configured with cache_action_plans).
  [[nodiscard]] Result<CommandResult> Execute(const Command& command,
                                const ExtraBindings* extra = nullptr,
                                CachedPlan* plan_cache = nullptr);

  /// Const-clean execution of a read-only command (currently: plain
  /// retrieve, no `into`). Plans into a call-local slot — never the scratch
  /// plan or a cache — and touches no executor state, so a read leaves the
  /// write path's plans untouched. The metrics it bumps are relaxed
  /// atomics.
  [[nodiscard]] Result<CommandResult> ExecuteReadOnly(
      const Command& command, const ExtraBindings* extra = nullptr) const;

  /// Builds (but does not run) the plan for the row-producing part of a DML
  /// command; used for EXPLAIN-style introspection, the read path, and by
  /// tests.
  [[nodiscard]] Result<Plan> PlanFor(const Command& command,
                       const ExtraBindings* extra = nullptr) const;

  /// Plan-cache effectiveness counters (see CachedPlan).
  uint64_t plan_cache_hits() const { return plan_cache_hits_; }
  uint64_t plans_built() const { return plans_built_; }

  /// Undo log receiving one record per DDL operation (null = no logging).
  /// Tuple mutations are logged by the gateway; the executor only logs the
  /// catalog ops it performs directly: create → drop on undo, destroy →
  /// detach (relation kept alive inside the record) → re-adopt on undo,
  /// define index → drop index on undo.
  void set_undo_log(UndoLog* undo) { undo_ = undo; }

 private:
  /// Returns the plan to execute: the valid cached one, or a fresh plan
  /// (stored into the cache slot when given, into scratch otherwise).
  [[nodiscard]] Result<Plan*> ObtainPlan(const Command& command, const ExtraBindings* extra,
                           CachedPlan* plan_cache);

  [[nodiscard]] Result<CommandResult> ExecuteCreate(const CreateCommand& cmd);
  [[nodiscard]] Result<CommandResult> ExecuteDestroy(const DestroyCommand& cmd);
  [[nodiscard]] Result<CommandResult> ExecuteDefineIndex(const DefineIndexCommand& cmd);
  [[nodiscard]] Result<CommandResult> ExecuteRetrieve(const RetrieveCommand& cmd,
                                        const ExtraBindings* extra,
                                        CachedPlan* plan_cache);
  /// The row-producing body of retrieve (target compilation, v.all
  /// expansion, plan execution, aggregate dispatch) — const, shared by the
  /// serialized path (ExecuteRetrieve) and the read path (ExecuteReadOnly).
  [[nodiscard]] Result<CommandResult> RunRetrieve(const RetrieveCommand& cmd,
                                                  Plan& plan) const;
  /// Aggregate-target form of retrieve: count/sum/avg/min/max over the
  /// qualified rows; produces exactly one result row.
  [[nodiscard]] Result<CommandResult> ExecuteAggregateRetrieve(const RetrieveCommand& cmd,
                                                 Plan& plan) const;
  /// Evaluates an all-aggregate target list over the plan's rows; one value
  /// (and inferred type) per target. Shared by retrieve and append.
  [[nodiscard]] Result<std::vector<Value>> ComputeAggregates(
      const std::vector<Assignment>& targets, Plan& plan,
      std::vector<DataType>* types) const;
  [[nodiscard]] Result<CommandResult> ExecuteAppend(const AppendCommand& cmd,
                                      const ExtraBindings* extra,
                                      CachedPlan* plan_cache);
  [[nodiscard]] Result<CommandResult> ExecuteDelete(const DeleteCommand& cmd,
                                      const ExtraBindings* extra,
                                      CachedPlan* plan_cache);
  [[nodiscard]] Result<CommandResult> ExecuteReplace(const ReplaceCommand& cmd,
                                       const ExtraBindings* extra,
                                       CachedPlan* plan_cache);

  /// Resolves a relation for a tuple-variable name: extra bindings first,
  /// then the catalog.
  [[nodiscard]] Result<const HeapRelation*> ResolveRelation(const std::string& name,
                                              const ExtraBindings* extra) const;

  /// Resolves a relation that a command is about to mutate. Only catalog
  /// relations are writable; a name that resolves solely to an extra binding
  /// (a read-only rule firing buffer) is a semantic error rather than a
  /// const_cast waiting to corrupt it.
  [[nodiscard]] Result<HeapRelation*> ResolveRelationForWrite(
      const std::string& name, const ExtraBindings* extra) const;

  /// Computes the command's variable scope: explicit from-list entries plus
  /// implicit relation-name variables referenced in the given expressions.
  [[nodiscard]] Result<std::vector<PlanVar>> BuildScopeVars(
      const std::vector<FromItem>& from,
      const std::vector<const Expr*>& referencing_exprs,
      const std::vector<std::string>& extra_var_names,
      const ExtraBindings* extra) const;

  Catalog* catalog_;
  StorageGateway* gateway_;
  Optimizer* optimizer_;
  UndoLog* undo_ = nullptr;
  Plan scratch_plan_;  // holds the plan of the current uncached execution
  uint64_t plan_cache_hits_ = 0;
  uint64_t plans_built_ = 0;
};

}  // namespace ariel

#endif  // ARIEL_EXEC_EXECUTOR_H_
