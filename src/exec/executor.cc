#include "exec/executor.h"

#include <algorithm>
#include <set>

#include "util/metrics.h"
#include "util/string_util.h"

namespace ariel {

namespace {

/// A compiled target-list entry for append: which attribute position of the
/// destination tuple it fills, and the expression producing the value.
struct CompiledTarget {
  size_t position;
  CompiledExprPtr expr;
};

/// Compiles an append/retrieve-style target list against `scope`, expanding
/// `v.all` and resolving positional (unnamed) targets left to right into the
/// positions not claimed by named targets.
Result<std::vector<CompiledTarget>> CompileTargets(
    const std::vector<Assignment>& targets, const Schema& dest_schema,
    const Scope& scope) {
  std::vector<bool> taken(dest_schema.num_attributes(), false);
  std::vector<std::pair<int, const Expr*>> resolved;  // position or -1

  // First pass: named targets claim their positions.
  for (const Assignment& a : targets) {
    if (a.name.empty()) {
      resolved.emplace_back(-1, a.expr.get());
      continue;
    }
    ARIEL_ASSIGN_OR_RETURN(size_t pos, dest_schema.Find(a.name));
    if (taken[pos]) {
      return Status::SemanticError("attribute \"" + a.name +
                                   "\" assigned twice");
    }
    taken[pos] = true;
    resolved.emplace_back(static_cast<int>(pos), a.expr.get());
  }

  // Second pass: positional targets (and v.all expansions) fill remaining
  // positions in order.
  size_t cursor = 0;
  auto next_free = [&]() -> Result<size_t> {
    while (cursor < taken.size() && taken[cursor]) ++cursor;
    if (cursor >= taken.size()) {
      return Status::SemanticError(
          "more target expressions than attributes in destination schema " +
          dest_schema.ToString());
    }
    taken[cursor] = true;
    return cursor++;
  };

  std::vector<CompiledTarget> out;
  for (auto& [pos, expr] : resolved) {
    // v.all expands to one target per attribute of v's schema.
    if (expr->kind == ExprKind::kColumnRef &&
        static_cast<const ColumnRefExpr*>(expr)->is_all()) {
      const auto& ref = *static_cast<const ColumnRefExpr*>(expr);
      int var = scope.IndexOf(ref.tuple_var);
      if (var < 0) {
        return Status::SemanticError("unknown tuple variable \"" +
                                     ref.tuple_var + "\"");
      }
      const Schema& var_schema = *scope.var(var).schema;
      for (size_t i = 0; i < var_schema.num_attributes(); ++i) {
        ColumnRefExpr attr_ref(ref.tuple_var, var_schema.attribute(i).name,
                               ref.previous);
        ARIEL_ASSIGN_OR_RETURN(CompiledExprPtr compiled,
                               CompileExpr(attr_ref, scope));
        ARIEL_ASSIGN_OR_RETURN(size_t dest, next_free());
        out.push_back(CompiledTarget{dest, std::move(compiled)});
      }
      continue;
    }
    size_t dest;
    if (pos >= 0) {
      dest = static_cast<size_t>(pos);
    } else {
      ARIEL_ASSIGN_OR_RETURN(dest, next_free());
    }
    ARIEL_ASSIGN_OR_RETURN(CompiledExprPtr compiled, CompileExpr(*expr, scope));
    out.push_back(CompiledTarget{dest, std::move(compiled)});
  }
  return out;
}

/// Shared tail of the mutation commands (append, delete, replace). By the
/// time it runs, the row-producing plan has been fully materialized into
/// `items` (pipeline breaker — the source may scan the relation being
/// mutated), so each entry is resolved to its destination relation
/// (`resolve` returns null when the target vanished since planning, e.g.
/// deleted by an earlier entry of the same command) and applied through the
/// storage gateway so the rule system observes every mutation.
template <typename Item, typename ResolveFn, typename ApplyFn>
Result<size_t> ApplyThroughGateway(std::vector<Item>& items, ResolveFn resolve,
                                   ApplyFn apply) {
  size_t affected = 0;
  for (Item& item : items) {
    HeapRelation* rel = resolve(item);
    if (rel == nullptr) continue;
    ARIEL_RETURN_NOT_OK(apply(rel, item));
    ++affected;
  }
  return affected;
}

/// Derives a result-column name for an unnamed retrieve target.
std::string DeriveTargetName(const Expr& expr, size_t ordinal) {
  if (expr.kind == ExprKind::kColumnRef) {
    const auto& ref = static_cast<const ColumnRefExpr&>(expr);
    std::string name = ref.attribute;
    if (ref.previous) name = "previous." + name;
    return name;
  }
  return "col" + std::to_string(ordinal);
}

}  // namespace

Result<const HeapRelation*> Executor::ResolveRelation(
    const std::string& name, const ExtraBindings* extra) const {
  std::string key = ToLower(name);
  if (extra != nullptr) {
    auto it = extra->find(key);
    if (it != extra->end()) return it->second;
  }
  HeapRelation* rel = catalog_->GetRelation(key);
  if (rel != nullptr) return rel;
  return Status::SemanticError("unknown tuple variable or relation \"" + key +
                               "\"");
}

Result<HeapRelation*> Executor::ResolveRelationForWrite(
    const std::string& name, const ExtraBindings* extra) const {
  std::string key = ToLower(name);
  HeapRelation* rel = catalog_->GetRelation(key);
  if (rel != nullptr) return rel;
  if (extra != nullptr && extra->find(key) != extra->end()) {
    return Status::SemanticError("\"" + key +
                                 "\" is a read-only rule binding and cannot "
                                 "be the target of a mutation");
  }
  return Status::SemanticError("unknown tuple variable or relation \"" + key +
                               "\"");
}

Result<std::vector<PlanVar>> Executor::BuildScopeVars(
    const std::vector<FromItem>& from,
    const std::vector<const Expr*>& referencing_exprs,
    const std::vector<std::string>& extra_var_names,
    const ExtraBindings* extra) const {
  std::vector<PlanVar> vars;
  auto have = [&](const std::string& name) {
    return std::any_of(vars.begin(), vars.end(), [&](const PlanVar& v) {
      return v.name == name;
    });
  };
  auto add = [&](const std::string& raw_name,
                 const std::string& relation_name) -> Status {
    std::string name = ToLower(raw_name);
    if (have(name)) return Status::OK();
    ARIEL_ASSIGN_OR_RETURN(const HeapRelation* rel,
                           ResolveRelation(relation_name, extra));
    bool is_pnode =
        extra != nullptr && extra->contains(ToLower(relation_name)) &&
        catalog_->GetRelation(relation_name) == nullptr;
    vars.push_back(PlanVar{name, rel, is_pnode});
    return Status::OK();
  };

  for (const FromItem& item : from) {
    ARIEL_RETURN_NOT_OK(add(item.var, item.relation));
  }
  for (const std::string& name : extra_var_names) {
    ARIEL_RETURN_NOT_OK(add(name, name));
  }
  for (const Expr* expr : referencing_exprs) {
    if (expr == nullptr) continue;
    for (const std::string& name : CollectTupleVars(*expr)) {
      if (!have(name)) {
        ARIEL_RETURN_NOT_OK(add(name, name));
      }
    }
  }
  return vars;
}

Result<CommandResult> Executor::Execute(const Command& command,
                                        const ExtraBindings* extra,
                                        CachedPlan* plan_cache) {
  switch (command.kind) {
    case CommandKind::kCreate:
      return ExecuteCreate(static_cast<const CreateCommand&>(command));
    case CommandKind::kDestroy:
      return ExecuteDestroy(static_cast<const DestroyCommand&>(command));
    case CommandKind::kDefineIndex:
      return ExecuteDefineIndex(
          static_cast<const DefineIndexCommand&>(command));
    case CommandKind::kRetrieve:
      return ExecuteRetrieve(static_cast<const RetrieveCommand&>(command),
                             extra, plan_cache);
    case CommandKind::kAppend:
      return ExecuteAppend(static_cast<const AppendCommand&>(command), extra,
                           plan_cache);
    case CommandKind::kDelete:
      return ExecuteDelete(static_cast<const DeleteCommand&>(command), extra,
                           plan_cache);
    case CommandKind::kReplace:
      return ExecuteReplace(static_cast<const ReplaceCommand&>(command),
                            extra, plan_cache);
    default:
      return Status::Internal(
          "Executor::Execute received a non-executor command (kind " +
          std::to_string(static_cast<int>(command.kind)) + ")");
  }
}

Result<CommandResult> Executor::ExecuteCreate(const CreateCommand& cmd) {
  std::vector<Attribute> attrs;
  for (const auto& [name, type] : cmd.attributes) {
    attrs.push_back(Attribute{name, type});
  }
  ARIEL_RETURN_NOT_OK(
      catalog_->CreateRelation(cmd.relation, Schema(std::move(attrs)))
          .status());
  if (undo_ != nullptr) undo_->AppendCreateRelation(cmd.relation);
  return CommandResult{};
}

Result<CommandResult> Executor::ExecuteDestroy(const DestroyCommand& cmd) {
  if (undo_ != nullptr && undo_->enabled()) {
    // Detach instead of drop: the record keeps the relation (tuples,
    // indexes, id) alive so an abort can re-adopt it wholesale.
    ARIEL_ASSIGN_OR_RETURN(std::unique_ptr<HeapRelation> detached,
                           catalog_->Detach(cmd.relation));
    undo_->AppendDropRelation(std::move(detached));
  } else {
    ARIEL_RETURN_NOT_OK(catalog_->DropRelation(cmd.relation));
  }
  return CommandResult{};
}

Result<CommandResult> Executor::ExecuteDefineIndex(
    const DefineIndexCommand& cmd) {
  ARIEL_ASSIGN_OR_RETURN(HeapRelation * rel,
                         catalog_->FindRelation(cmd.relation));
  // CreateIndex is idempotent; only a genuinely new index is undoable
  // (dropping a pre-existing one on abort would lose state the command
  // never created).
  const bool existed = rel->GetIndex(cmd.attribute) != nullptr;
  ARIEL_RETURN_NOT_OK(rel->CreateIndex(cmd.attribute));
  if (!existed && undo_ != nullptr) {
    undo_->AppendCreateIndex(rel->id(), std::string(cmd.attribute));
  }
  // A new index changes what the optimizer would choose: invalidate
  // cached plans.
  catalog_->BumpVersion();
  return CommandResult{};
}

Result<Plan> Executor::PlanFor(const Command& command,
                               const ExtraBindings* extra) const {
  switch (command.kind) {
    case CommandKind::kRetrieve: {
      const auto& cmd = static_cast<const RetrieveCommand&>(command);
      std::vector<const Expr*> exprs{cmd.qualification.get()};
      for (const Assignment& a : cmd.targets) exprs.push_back(a.expr.get());
      ARIEL_ASSIGN_OR_RETURN(std::vector<PlanVar> vars,
                             BuildScopeVars(cmd.from, exprs, {}, extra));
      return optimizer_->BuildPlan(vars, cmd.qualification.get());
    }
    case CommandKind::kAppend: {
      const auto& cmd = static_cast<const AppendCommand&>(command);
      std::vector<const Expr*> exprs{cmd.qualification.get()};
      for (const Assignment& a : cmd.targets) exprs.push_back(a.expr.get());
      ARIEL_ASSIGN_OR_RETURN(std::vector<PlanVar> vars,
                             BuildScopeVars(cmd.from, exprs, {}, extra));
      return optimizer_->BuildPlan(vars, cmd.qualification.get());
    }
    case CommandKind::kDelete: {
      const auto& cmd = static_cast<const DeleteCommand&>(command);
      std::string target_var = cmd.target_var.substr(0, cmd.target_var.find('.'));
      ARIEL_ASSIGN_OR_RETURN(
          std::vector<PlanVar> vars,
          BuildScopeVars(cmd.from, {cmd.qualification.get()}, {target_var},
                         extra));
      return optimizer_->BuildPlan(vars, cmd.qualification.get());
    }
    case CommandKind::kReplace: {
      const auto& cmd = static_cast<const ReplaceCommand&>(command);
      std::string target_var = cmd.target_var.substr(0, cmd.target_var.find('.'));
      std::vector<const Expr*> exprs{cmd.qualification.get()};
      for (const Assignment& a : cmd.targets) exprs.push_back(a.expr.get());
      ARIEL_ASSIGN_OR_RETURN(
          std::vector<PlanVar> vars,
          BuildScopeVars(cmd.from, exprs, {target_var}, extra));
      return optimizer_->BuildPlan(vars, cmd.qualification.get());
    }
    default:
      return Status::InvalidArgument("no plan for this command kind");
  }
}

Result<Plan*> Executor::ObtainPlan(const Command& command,
                                   const ExtraBindings* extra,
                                   CachedPlan* plan_cache) {
  if (plan_cache != nullptr && plan_cache->plan.has_value() &&
      plan_cache->catalog_version == catalog_->version()) {
    ++plan_cache_hits_;
    Metrics().plan_cache_hits.Increment();
    return &*plan_cache->plan;
  }
  ARIEL_ASSIGN_OR_RETURN(Plan built, PlanFor(command, extra));
  ++plans_built_;
  Metrics().plans_built.Increment();
  if (plan_cache != nullptr) {
    plan_cache->catalog_version = catalog_->version();
    plan_cache->plan = std::move(built);
    return &*plan_cache->plan;
  }
  scratch_plan_ = std::move(built);
  return &scratch_plan_;
}

Result<CommandResult> Executor::ExecuteRetrieve(const RetrieveCommand& cmd,
                                                const ExtraBindings* extra,
                                                CachedPlan* plan_cache) {
  ARIEL_ASSIGN_OR_RETURN(Plan* plan, ObtainPlan(cmd, extra, plan_cache));
  ARIEL_ASSIGN_OR_RETURN(CommandResult cr, RunRetrieve(cmd, *plan));

  // retrieve into: materialize the result as a new relation; inserts go
  // through the gateway so any (later-activated) rules see real events.
  if (!cmd.into.empty()) {
    ARIEL_ASSIGN_OR_RETURN(
        HeapRelation * dest,
        catalog_->CreateRelation(cmd.into, cr.rows->schema));
    if (undo_ != nullptr) undo_->AppendCreateRelation(cmd.into);
    for (Tuple& row : cr.rows->rows) {
      ARIEL_RETURN_NOT_OK(gateway_->Insert(dest, std::move(row)).status());
    }
    cr.rows.reset();
    return cr;
  }
  return cr;
}

Result<CommandResult> Executor::RunRetrieve(const RetrieveCommand& cmd,
                                            Plan& plan) const {
  // Aggregate form: every target aggregates over the qualified rows and
  // the result is a single row (there is no grouping).
  bool has_aggregate = false;
  for (const Assignment& a : cmd.targets) {
    if (a.expr->kind == ExprKind::kAggregate) has_aggregate = true;
  }
  if (has_aggregate) {
    if (!cmd.into.empty()) {
      return Status::SemanticError("retrieve into does not take aggregates");
    }
    return ExecuteAggregateRetrieve(cmd, plan);
  }

  // Build the result schema, expanding v.all.
  ResultSet result;
  struct OutCol {
    CompiledExprPtr expr;
  };
  std::vector<OutCol> columns;
  size_t ordinal = 0;
  for (const Assignment& a : cmd.targets) {
    if (a.expr->kind == ExprKind::kColumnRef &&
        static_cast<const ColumnRefExpr&>(*a.expr).is_all()) {
      const auto& ref = static_cast<const ColumnRefExpr&>(*a.expr);
      int var = plan.scope.IndexOf(ref.tuple_var);
      if (var < 0) {
        return Status::SemanticError("unknown tuple variable \"" +
                                     ref.tuple_var + "\"");
      }
      const Schema& var_schema = *plan.scope.var(var).schema;
      for (size_t i = 0; i < var_schema.num_attributes(); ++i) {
        ColumnRefExpr attr_ref(ref.tuple_var, var_schema.attribute(i).name,
                               ref.previous);
        ARIEL_ASSIGN_OR_RETURN(CompiledExprPtr compiled,
                               CompileExpr(attr_ref, plan.scope));
        result.schema.AddAttribute(var_schema.attribute(i));
        columns.push_back(OutCol{std::move(compiled)});
        ++ordinal;
      }
      continue;
    }
    ARIEL_ASSIGN_OR_RETURN(CompiledExprPtr compiled,
                           CompileExpr(*a.expr, plan.scope));
    ARIEL_ASSIGN_OR_RETURN(DataType type, InferType(*a.expr, plan.scope));
    std::string name =
        a.name.empty() ? DeriveTargetName(*a.expr, ordinal) : a.name;
    result.schema.AddAttribute(Attribute{std::move(name), type});
    columns.push_back(OutCol{std::move(compiled)});
    ++ordinal;
  }

  ARIEL_RETURN_NOT_OK(plan.root->Execute([&](const Row& row) -> Status {
    Tuple out;
    for (const OutCol& col : columns) {
      ARIEL_ASSIGN_OR_RETURN(Value v, col.expr->Eval(row));
      out.Append(std::move(v));
    }
    result.rows.push_back(std::move(out));
    return Status::OK();
  }));

  CommandResult cr;
  cr.affected = result.rows.size();
  cr.rows = std::move(result);
  return cr;
}

Result<CommandResult> Executor::ExecuteReadOnly(
    const Command& command, const ExtraBindings* extra) const {
  if (command.kind != CommandKind::kRetrieve) {
    return Status::Internal(
        "ExecuteReadOnly: command kind has no const execution path");
  }
  const auto& cmd = static_cast<const RetrieveCommand&>(command);
  if (!cmd.into.empty()) {
    return Status::Internal("ExecuteReadOnly: retrieve into is a mutation");
  }
  // A call-local plan: the read path never touches the scratch slot or a
  // shared cache, so it stays const (at the price of re-planning each
  // read; the pre-registered counter is a relaxed atomic).
  ARIEL_ASSIGN_OR_RETURN(Plan plan, PlanFor(cmd, extra));
  Metrics().plans_built.Increment();
  return RunRetrieve(cmd, plan);
}

Result<std::vector<Value>> Executor::ComputeAggregates(
    const std::vector<Assignment>& targets, Plan& plan,
    std::vector<DataType>* types) const {
  struct AggState {
    AggFunc func;
    CompiledExprPtr operand;  // null for count(v)
    size_t count = 0;         // rows (count(v)) or non-null values
    double sum = 0;
    Value best;               // running min/max
    bool has_value = false;
  };
  std::vector<AggState> states;
  for (const Assignment& a : targets) {
    if (a.expr->kind != ExprKind::kAggregate) {
      return Status::SemanticError(
          "cannot mix aggregate and per-tuple targets (no grouping "
          "support)");
    }
    const auto& agg = static_cast<const AggregateExpr&>(*a.expr);
    AggState state;
    state.func = agg.func;
    if (agg.operand != nullptr) {
      ARIEL_ASSIGN_OR_RETURN(state.operand,
                             CompileExpr(*agg.operand, plan.scope));
      if (agg.func == AggFunc::kSum || agg.func == AggFunc::kAvg) {
        ARIEL_ASSIGN_OR_RETURN(DataType t, InferType(*agg.operand, plan.scope));
        if (t == DataType::kString || t == DataType::kBool) {
          return Status::SemanticError(
              std::string(AggFuncToString(agg.func)) +
              " requires a numeric operand");
        }
      }
    }
    ARIEL_ASSIGN_OR_RETURN(DataType type, InferType(*a.expr, plan.scope));
    types->push_back(type);
    states.push_back(std::move(state));
  }

  ARIEL_RETURN_NOT_OK(plan.root->Execute([&](const Row& row) -> Status {
    for (AggState& state : states) {
      if (state.operand == nullptr) {  // count(v): counts qualified rows
        ++state.count;
        continue;
      }
      ARIEL_ASSIGN_OR_RETURN(Value v, state.operand->Eval(row));
      if (v.is_null()) continue;  // nulls don't contribute
      ++state.count;
      switch (state.func) {
        case AggFunc::kCount:
          break;
        case AggFunc::kSum:
        case AggFunc::kAvg:
          if (!v.is_numeric()) {
            return Status::ExecutionError("aggregate over non-numeric value " +
                                          v.ToString());
          }
          state.sum += v.AsDouble();
          break;
        case AggFunc::kMin:
          if (!state.has_value || v < state.best) state.best = v;
          break;
        case AggFunc::kMax:
          if (!state.has_value || v > state.best) state.best = v;
          break;
      }
      state.has_value = true;
    }
    return Status::OK();
  }));

  std::vector<Value> out;
  for (size_t i = 0; i < states.size(); ++i) {
    const AggState& state = states[i];
    switch (state.func) {
      case AggFunc::kCount:
        out.push_back(Value::Int(static_cast<int64_t>(state.count)));
        break;
      case AggFunc::kSum:
        // SQL-style: aggregates over the empty set are null (except count).
        if (!state.has_value) {
          out.push_back(Value::Null());
        } else if ((*types)[i] == DataType::kInt) {
          out.push_back(Value::Int(static_cast<int64_t>(state.sum)));
        } else {
          out.push_back(Value::Float(state.sum));
        }
        break;
      case AggFunc::kAvg:
        out.push_back(state.has_value
                          ? Value::Float(state.sum / state.count)
                          : Value::Null());
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        out.push_back(state.has_value ? state.best : Value::Null());
        break;
    }
  }
  return out;
}

Result<CommandResult> Executor::ExecuteAggregateRetrieve(
    const RetrieveCommand& cmd, Plan& plan) const {
  std::vector<DataType> types;
  ARIEL_ASSIGN_OR_RETURN(std::vector<Value> values,
                         ComputeAggregates(cmd.targets, plan, &types));
  ResultSet result;
  for (size_t i = 0; i < cmd.targets.size(); ++i) {
    const auto& agg = static_cast<const AggregateExpr&>(*cmd.targets[i].expr);
    std::string name = cmd.targets[i].name.empty()
                           ? AggFuncToString(agg.func) + std::to_string(i)
                           : cmd.targets[i].name;
    result.schema.AddAttribute(Attribute{std::move(name), types[i]});
  }
  result.rows.push_back(Tuple(std::move(values)));

  CommandResult cr;
  cr.affected = 1;
  cr.rows = std::move(result);
  return cr;
}

Result<CommandResult> Executor::ExecuteAppend(const AppendCommand& cmd,
                                              const ExtraBindings* extra,
                                              CachedPlan* plan_cache) {
  ARIEL_ASSIGN_OR_RETURN(HeapRelation * dest,
                         catalog_->FindRelation(cmd.relation));
  ARIEL_ASSIGN_OR_RETURN(Plan* plan, ObtainPlan(cmd, extra, plan_cache));

  // Aggregate-target append (e.g. a rule action summarizing its binding
  // set): evaluate the aggregates over the qualified rows and insert one
  // tuple, values mapped to attributes by name or position.
  bool has_aggregate = false;
  for (const Assignment& a : cmd.targets) {
    if (a.expr->kind == ExprKind::kAggregate) has_aggregate = true;
  }
  if (has_aggregate) {
    std::vector<DataType> types;
    ARIEL_ASSIGN_OR_RETURN(std::vector<Value> values,
                           ComputeAggregates(cmd.targets, *plan, &types));
    Tuple out(std::vector<Value>(dest->schema().num_attributes()));
    std::vector<bool> taken(dest->schema().num_attributes(), false);
    size_t cursor = 0;
    for (size_t i = 0; i < cmd.targets.size(); ++i) {
      size_t pos;
      if (!cmd.targets[i].name.empty()) {
        ARIEL_ASSIGN_OR_RETURN(pos, dest->schema().Find(cmd.targets[i].name));
      } else {
        while (cursor < taken.size() && taken[cursor]) ++cursor;
        if (cursor >= taken.size()) {
          return Status::SemanticError("more aggregate targets than "
                                       "attributes in \"" + dest->name() +
                                       "\"");
        }
        pos = cursor++;
      }
      if (taken[pos]) {
        return Status::SemanticError("attribute assigned twice in aggregate "
                                     "append");
      }
      taken[pos] = true;
      out.at(pos) = std::move(values[i]);
    }
    ARIEL_RETURN_NOT_OK(gateway_->Insert(dest, std::move(out)).status());
    CommandResult cr;
    cr.affected = 1;
    return cr;
  }

  ARIEL_ASSIGN_OR_RETURN(
      std::vector<CompiledTarget> targets,
      CompileTargets(cmd.targets, dest->schema(), plan->scope));

  // Materialize the new tuples before inserting any of them: the source may
  // scan the destination relation itself.
  std::vector<Tuple> new_tuples;
  ARIEL_RETURN_NOT_OK(plan->root->Execute([&](const Row& row) -> Status {
    Tuple out(std::vector<Value>(dest->schema().num_attributes()));
    for (const CompiledTarget& t : targets) {
      ARIEL_ASSIGN_OR_RETURN(Value v, t.expr->Eval(row));
      out.at(t.position) = std::move(v);
    }
    new_tuples.push_back(std::move(out));
    return Status::OK();
  }));

  CommandResult cr;
  ARIEL_ASSIGN_OR_RETURN(
      cr.affected,
      ApplyThroughGateway(
          new_tuples, [&](Tuple&) { return dest; },
          [&](HeapRelation* rel, Tuple& t) {
            return gateway_->Insert(rel, std::move(t)).status();
          }));
  return cr;
}

Result<CommandResult> Executor::ExecuteDelete(const DeleteCommand& cmd,
                                              const ExtraBindings* extra,
                                              CachedPlan* plan_cache) {
  ARIEL_ASSIGN_OR_RETURN(Plan* plan, ObtainPlan(cmd, extra, plan_cache));

  size_t dot = cmd.target_var.find('.');
  std::string var = cmd.target_var.substr(0, dot);
  int ordinal = plan->scope.IndexOf(var);
  if (ordinal < 0) {
    return Status::SemanticError("unknown delete target \"" + var + "\"");
  }

  // Collect target tuple ids first (pipeline breaker), deduplicated: a tuple
  // matching the qualification several ways is deleted once.
  std::vector<TupleId> victims;
  std::set<std::pair<uint32_t, uint32_t>> seen;
  auto add_victim = [&](TupleId tid) {
    if (seen.insert({tid.relation_id, tid.slot}).second) {
      victims.push_back(tid);
    }
  };

  if (cmd.primed) {
    // delete' P.x: tids come from the P-node's "x.tid" column (§5.1).
    if (dot == std::string::npos) {
      return Status::SemanticError(
          "primed delete target must name a P-node component (e.g. p.emp)");
    }
    std::string component = cmd.target_var.substr(dot + 1);
    ColumnRefExpr tid_ref(var, component + ".tid");
    ARIEL_ASSIGN_OR_RETURN(CompiledExprPtr tid_expr,
                           CompileExpr(tid_ref, plan->scope));
    ARIEL_RETURN_NOT_OK(plan->root->Execute([&](const Row& row) -> Status {
      ARIEL_ASSIGN_OR_RETURN(Value v, tid_expr->Eval(row));
      add_victim(DecodeTid(v.int_value()));
      return Status::OK();
    }));
  } else {
    size_t ord = static_cast<size_t>(ordinal);
    ARIEL_RETURN_NOT_OK(plan->root->Execute([&](const Row& row) -> Status {
      add_victim(row.tids[ord]);
      return Status::OK();
    }));
  }

  CommandResult cr;
  ARIEL_ASSIGN_OR_RETURN(
      cr.affected,
      ApplyThroughGateway(
          victims,
          [&](TupleId tid) -> HeapRelation* {
            HeapRelation* rel = catalog_->GetRelationById(tid.relation_id);
            if (rel == nullptr || rel->Get(tid) == nullptr) return nullptr;
            return rel;
          },
          [&](HeapRelation* rel, TupleId tid) {
            return gateway_->Delete(rel, tid);
          }));
  return cr;
}

Result<CommandResult> Executor::ExecuteReplace(const ReplaceCommand& cmd,
                                               const ExtraBindings* extra,
                                               CachedPlan* plan_cache) {
  ARIEL_ASSIGN_OR_RETURN(Plan* plan, ObtainPlan(cmd, extra, plan_cache));

  size_t dot = cmd.target_var.find('.');
  std::string var = cmd.target_var.substr(0, dot);
  int ordinal = plan->scope.IndexOf(var);
  if (ordinal < 0) {
    return Status::SemanticError("unknown replace target \"" + var + "\"");
  }

  // The relation whose tuples are updated. For primed replace the target
  // relation is recovered from the TIDs carried in the P-node.
  HeapRelation* target_rel = nullptr;
  CompiledExprPtr tid_expr;
  if (cmd.primed) {
    if (dot == std::string::npos) {
      return Status::SemanticError(
          "primed replace target must name a P-node component (e.g. p.emp)");
    }
    std::string component = cmd.target_var.substr(dot + 1);
    ColumnRefExpr tid_ref(var, component + ".tid");
    ARIEL_ASSIGN_OR_RETURN(tid_expr, CompileExpr(tid_ref, plan->scope));
  } else {
    // Non-primed: the target variable ranges directly over a relation.
    ARIEL_ASSIGN_OR_RETURN(target_rel, ResolveRelationForWrite(var, extra));
  }

  // Compile assignments. For primed commands the assignment attribute names
  // resolve in the base relation's schema, found lazily from the first TID.
  struct CompiledAssign {
    std::string attr_name;
    CompiledExprPtr expr;
  };
  std::vector<CompiledAssign> assigns;
  for (const Assignment& a : cmd.targets) {
    if (a.name.empty()) {
      return Status::SemanticError(
          "replace target list entries must be assignments (attr = expr)");
    }
    ARIEL_ASSIGN_OR_RETURN(CompiledExprPtr e, CompileExpr(*a.expr, plan->scope));
    assigns.push_back(CompiledAssign{ToLower(a.name), std::move(e)});
  }
  std::vector<std::string> updated_attrs;
  for (const CompiledAssign& a : assigns) updated_attrs.push_back(a.attr_name);

  // Materialize (tid, new values) pairs before mutating anything.
  struct PendingUpdate {
    TupleId tid;
    std::vector<Value> values;  // parallel to assigns
  };
  std::vector<PendingUpdate> updates;
  ARIEL_RETURN_NOT_OK(plan->root->Execute([&](const Row& row) -> Status {
    PendingUpdate u;
    if (cmd.primed) {
      ARIEL_ASSIGN_OR_RETURN(Value v, tid_expr->Eval(row));
      u.tid = DecodeTid(v.int_value());
    } else {
      u.tid = row.tids[static_cast<size_t>(ordinal)];
    }
    for (const CompiledAssign& a : assigns) {
      ARIEL_ASSIGN_OR_RETURN(Value v, a.expr->Eval(row));
      u.values.push_back(std::move(v));
    }
    updates.push_back(std::move(u));
    return Status::OK();
  }));

  CommandResult cr;
  ARIEL_ASSIGN_OR_RETURN(
      cr.affected,
      ApplyThroughGateway(
          updates,
          [&](PendingUpdate& u) -> HeapRelation* {
            HeapRelation* rel = cmd.primed
                                    ? catalog_->GetRelationById(
                                          u.tid.relation_id)
                                    : target_rel;
            if (rel == nullptr || rel->Get(u.tid) == nullptr) return nullptr;
            return rel;
          },
          [&](HeapRelation* rel, PendingUpdate& u) -> Status {
            // The new tuple is built from the *current* value at apply time:
            // an earlier entry of this command may have already updated it.
            Tuple next = *rel->Get(u.tid);
            for (size_t i = 0; i < assigns.size(); ++i) {
              ARIEL_ASSIGN_OR_RETURN(size_t pos,
                                     rel->schema().Find(assigns[i].attr_name));
              next.at(pos) = u.values[i];
            }
            return gateway_->Update(rel, u.tid, std::move(next),
                                    updated_attrs);
          }));
  return cr;
}

}  // namespace ariel
