#ifndef ARIEL_EXEC_OPTIMIZER_H_
#define ARIEL_EXEC_OPTIMIZER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "exec/plan.h"
#include "parser/ast.h"
#include "util/status.h"

namespace ariel {

/// One tuple variable of the command being planned and the relation it
/// ranges over. `is_pnode` marks the rule-action variable P so the plan
/// shows the paper's PnodeScan operator.
struct PlanVar {
  std::string name;
  const HeapRelation* relation = nullptr;
  bool is_pnode = false;
};

struct OptimizerOptions {
  /// Use B+tree indexes for single-variable range/point predicates.
  bool enable_index_scan = true;
  /// Consider sort-merge for equijoins (otherwise always nested loop).
  bool enable_sort_merge = true;
  /// Minimum estimated outer*inner row product before sort-merge is
  /// preferred over nested loop.
  double sort_merge_threshold = 256;
  /// Compile vectorizable scan/filter conjuncts into column-at-a-time
  /// kernels over cached ColumnBatch views (DatabaseOptions.columnar_exec /
  /// ARIEL_COLUMNAR propagate here).
  bool columnar_exec = true;
  /// Minimum live-tuple count, checked at execute time, before a scan or
  /// filter actually takes the columnar path; below it the per-scan mask
  /// setup costs more than it saves.
  size_t columnar_min_rows = 64;
};

/// A System-R-flavored planner: splits the qualification into conjuncts,
/// pushes single-variable selections into scans (choosing index scans when
/// a B+tree matches a bound), orders joins greedily by estimated
/// cardinality, and picks nested-loop or sort-merge per join. This is the
/// same component the paper's rule-action planner reuses: "the rest of the
/// query plan is constructed as usual by the query optimizer" (§5.2).
class Optimizer {
 public:
  explicit Optimizer(OptimizerOptions options = {}) : options_(options) {}

  /// Builds a plan producing every binding of `vars` satisfying `qual`
  /// (null = no qualification). Scope ordinals follow `vars` order. Const:
  /// planning reads the options and overrides but never mutates the
  /// optimizer, so the const read path (Executor::ExecuteReadOnly) can
  /// plan too.
  [[nodiscard]] Result<Plan> BuildPlan(const std::vector<PlanVar>& vars,
                                       const Expr* qual) const;

  const OptimizerOptions& options() const { return options_; }
  void set_options(OptimizerOptions options) { options_ = options; }

  /// Learned per-relation override of options().columnar_min_rows (the
  /// adaptive optimizer's row/column decision: 0 forces the columnar path
  /// for any live-tuple count, SIZE_MAX pins the row path). Applies to
  /// plans built after the call; cached plans re-check at execute time.
  void set_columnar_min_rows_for(uint32_t relation_id, size_t min_rows) {
    columnar_min_rows_overrides_[relation_id] = min_rows;
  }
  void clear_columnar_min_rows_overrides() {
    columnar_min_rows_overrides_.clear();
  }
  size_t columnar_min_rows_for(const HeapRelation* relation) const;

 private:
  OptimizerOptions options_;
  std::unordered_map<uint32_t, size_t> columnar_min_rows_overrides_;
};

/// Estimated selectivity of one conjunct (equality tighter than ranges),
/// exposed for the optimizer's tests.
double EstimateSelectivity(const Expr& conjunct);

}  // namespace ariel

#endif  // ARIEL_EXEC_OPTIMIZER_H_
