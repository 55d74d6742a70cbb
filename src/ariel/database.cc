#include "ariel/database.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "parser/parser.h"
#include "util/env.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace ariel {

Database::Database(DatabaseOptions options)
    : options_(options), optimizer_(options.optimizer) {
  options_.columnar_exec =
      EnvSizeOr("ARIEL_COLUMNAR", options_.columnar_exec ? 1 : 0) != 0;
  {
    // optimizer_ was constructed from options.optimizer before the env
    // override ran; re-apply the resolved master switch.
    OptimizerOptions opt = optimizer_.options();
    opt.columnar_exec = options_.columnar_exec;
    optimizer_.set_options(opt);
  }
  options_.batch_tokens = EnvSizeOr("ARIEL_BATCH_TOKENS", options_.batch_tokens);
  network_.set_columnar_exec(options_.columnar_exec);
  options_.match_threads =
      EnvSizeOr("ARIEL_MATCH_THREADS", options_.match_threads, kMaxEnvThreads);
  if (options_.match_threads > 0) {
    match_pool_ = std::make_unique<ThreadPool>(options_.match_threads);
    network_.ConfigureBatching(match_pool_.get());
  }
  transitions_ = std::make_unique<TransitionManager>(&network_);
  transitions_->set_batch_tokens(options_.batch_tokens);
  // The base conversion must happen here (inside Database), where the
  // private TransactionHooks base is accessible.
  txn_ = std::make_unique<TransactionContext>(
      static_cast<TransactionHooks*>(this));
  transitions_->set_undo_log(&txn_->undo_log());
  failpoint_ = std::make_unique<FailpointGateway>(transitions_.get());
  options_.failpoint_at = EnvSizeOr("ARIEL_FAILPOINT", options_.failpoint_at);
  if (options_.failpoint_at > 0) failpoint_->Arm(options_.failpoint_at);
  executor_ = std::make_unique<Executor>(&catalog_, failpoint_.get(),
                                         &optimizer_);
  executor_->set_undo_log(&txn_->undo_log());
  rules_ = std::make_unique<RuleManager>(&catalog_, &network_, &optimizer_);
  rules_->set_policy(options.alpha_policy);
  rules_->set_join_backend(options.join_backend);
  rules_->set_join_hash_indexes(options.join_hash_indexes);
  rules_->set_columnar_exec(options_.columnar_exec);
  monitor_ = std::make_unique<RuleExecutionMonitor>(rules_.get(),
                                                    executor_.get(),
                                                    transitions_.get());
  monitor_->set_max_firings_per_cycle(options.max_rule_firings_per_cycle);
  monitor_->set_cache_action_plans(options.cache_action_plans);
  monitor_->set_conflict_strategy(options.conflict_strategy);
  if (const char* policy = std::getenv("ARIEL_ON_ACTION_ERROR");
      policy != nullptr && *policy != '\0') {
    Result<ActionErrorPolicy> parsed = ActionErrorPolicyFromString(policy);
    // Malformed values are ignored, like the other env knobs.
    if (parsed.ok()) options_.on_action_error = *parsed;
  }
  if (const char* policy = std::getenv("ARIEL_ANALYZE");
      policy != nullptr && *policy != '\0') {
    Result<AnalyzeOnInstall> parsed = AnalyzeOnInstallFromString(policy);
    if (parsed.ok()) options_.analyze_on_install = *parsed;
  }
  monitor_->set_txn(txn_.get());
  monitor_->set_on_action_error(options_.on_action_error);
  network_.set_token_listener(
      [this](const Token& token) { ObserveToken(token); });
  options_.adaptive_optimize =
      EnvSizeOr("ARIEL_ADAPTIVE", options_.adaptive_optimize ? 1 : 0) != 0;
  if (options_.adaptive_optimize) {
    AdaptiveConfig config;
    config.min_gain = options_.adaptive_min_gain;
    config.min_tokens = options_.adaptive_min_tokens;
    config.columnar_min_rows = options_.optimizer.columnar_min_rows;
    adaptive_ = std::make_unique<AdaptiveOptimizer>(config);
  }
}

Database::~Database() = default;

Status Database::Subscribe(std::string_view relation,
                           AlertCallback callback) {
  ARIEL_ASSIGN_OR_RETURN(HeapRelation * rel, catalog_.FindRelation(relation));
  subscriptions_[rel->id()].push_back(std::move(callback));
  return Status::OK();
}

void Database::ObserveToken(const Token& token) {
  if (subscriptions_.empty()) return;
  auto it = subscriptions_.find(token.relation_id);
  if (it == subscriptions_.end()) return;
  if (!token.event.has_value() || token.event->kind != EventKind::kAppend) {
    return;
  }
  if (token.kind == TokenKind::kPlus) {
    pending_alerts_.push_back(
        PendingAlert{token.relation_id, token.tid, token.value});
  } else if (token.kind == TokenKind::kMinus) {
    // Retraction of an in-transition append (§2.2.2 cases 1/2): the
    // pending alert either gets re-asserted with the new value or was a
    // net-nothing insert — drop it; subscribers see logical events only.
    pending_alerts_.erase(
        std::remove_if(pending_alerts_.begin(), pending_alerts_.end(),
                       [&](const PendingAlert& alert) {
                         return alert.relation_id == token.relation_id &&
                                alert.tid == token.tid;
                       }),
        pending_alerts_.end());
  }
}

void Database::DrainAlerts() {
  if (pending_alerts_.empty()) return;
  std::vector<PendingAlert> delivering;
  delivering.swap(pending_alerts_);
  for (const PendingAlert& alert : delivering) {
    auto subs = subscriptions_.find(alert.relation_id);
    if (subs == subscriptions_.end()) continue;
    const HeapRelation* rel = catalog_.GetRelationById(alert.relation_id);
    std::string name = rel != nullptr ? rel->name() : "<dropped>";
    for (const AlertCallback& callback : subs->second) {
      callback(name, alert.value);
    }
  }
}

Result<CommandResult> Database::Execute(std::string_view script) {
  ARIEL_ASSIGN_OR_RETURN(std::vector<CommandResult> results,
                         ExecuteAll(script));
  if (results.empty()) return CommandResult{};
  return std::move(results.back());
}

Result<std::vector<CommandResult>> Database::ExecuteAll(
    std::string_view script) {
  ARIEL_ASSIGN_OR_RETURN(std::vector<CommandPtr> commands,
                         ParseScript(script));
  std::vector<CommandResult> results;
  for (const CommandPtr& command : commands) {
    ARIEL_ASSIGN_OR_RETURN(CommandResult result, ExecuteCommand(*command));
    results.push_back(std::move(result));
  }
  return results;
}

Result<CommandResult> Database::ExecuteCommand(const Command& command) {
  // Read-only commands take the const path: no transition, no savepoint.
  if (IsReadOnlyCommand(command)) return ExecuteReadOnly(command);
  switch (command.kind) {
    case CommandKind::kCreate:
    case CommandKind::kDefineIndex:
      return ExecuteTransacted(command, /*ddl=*/true);

    case CommandKind::kDestroy: {
      const auto& cmd = static_cast<const DestroyCommand&>(command);
      if (rules_->AnyRuleReferences(cmd.relation)) {
        return Status::InvalidArgument(
            "cannot destroy relation \"" + cmd.relation +
            "\": it is referenced by an installed rule");
      }
      return ExecuteTransacted(command, /*ddl=*/true);
    }

    case CommandKind::kRetrieve: {
      // Only the non-read-only retrieve forms reach the switch: a query
      // over the sys-catalog snapshots (which must be rebuilt first) or
      // retrieve-into (which materializes a relation — a mutation).
      const auto& cmd = static_cast<const RetrieveCommand&>(command);
      if (TraitsOf(command).touches_sys_catalog) {
        // System catalogs are snapshots: rebuild them when the query might
        // look at them (cheap — proportional to #relations + #rules).
        ARIEL_RETURN_NOT_OK(RefreshSystemCatalogs());
      }
      if (!cmd.into.empty()) {
        return ExecuteTransacted(command, /*ddl=*/false);
      }
      return executor_->Execute(command);
    }

    case CommandKind::kAppend:
    case CommandKind::kDelete:
    case CommandKind::kReplace:
    case CommandKind::kBlock:
      return ExecuteTransacted(command, /*ddl=*/false);

    case CommandKind::kDefineRule: {
      const auto& cmd = static_cast<const DefineRuleCommand&>(command);
      ARIEL_RETURN_NOT_OK(rules_->DefineRule(cmd));
      if (options_.auto_activate_rules) {
        ARIEL_RETURN_NOT_OK(rules_->ActivateRule(cmd.rule_name));
      }
      if (options_.analyze_on_install != AnalyzeOnInstall::kOff) {
        ARIEL_ASSIGN_OR_RETURN(RuleSetAnalysis analysis,
                               AnalyzeRuleSet(*rules_, catalog_));
        if (options_.analyze_on_install == AnalyzeOnInstall::kError &&
            analysis.num_errors() > 0) {
          // Installing this rule created a provably non-terminating
          // cascade: undo the install and surface the cycle report.
          std::string detail;
          for (const Finding& f : analysis.findings) {
            if (f.is_error()) detail += "; " + f.message;
          }
          ARIEL_RETURN_NOT_OK(rules_->RemoveRule(cmd.rule_name));
          return Status::InvalidArgument(
              "rule \"" + ToLower(cmd.rule_name) +
              "\" rejected by install-time analysis" + detail);
        }
        if (!analysis.findings.empty()) {
          std::ostringstream os;
          os << "install-time analysis of rule " << ToLower(cmd.rule_name)
             << ":\n";
          for (const Finding& f : analysis.findings) {
            os << "  " << (f.is_error() ? "ERROR" : "WARNING") << " ["
               << FindingKindToString(f.kind) << "] " << f.message << "\n";
          }
          CommandResult result;
          result.message = os.str();
          return result;
        }
      }
      return CommandResult{};
    }
    case CommandKind::kActivateRule: {
      const auto& cmd = static_cast<const ActivateRuleCommand&>(command);
      ARIEL_RETURN_NOT_OK(cmd.is_ruleset
                              ? rules_->ActivateRuleset(cmd.rule_name)
                              : rules_->ActivateRule(cmd.rule_name));
      return CommandResult{};
    }
    case CommandKind::kDeactivateRule: {
      const auto& cmd = static_cast<const DeactivateRuleCommand&>(command);
      ARIEL_RETURN_NOT_OK(cmd.is_ruleset
                              ? rules_->DeactivateRuleset(cmd.rule_name)
                              : rules_->DeactivateRule(cmd.rule_name));
      return CommandResult{};
    }
    case CommandKind::kRemoveRule:
      ARIEL_RETURN_NOT_OK(rules_->RemoveRule(
          static_cast<const RemoveRuleCommand&>(command).rule_name));
      return CommandResult{};

    case CommandKind::kHalt:
      // Top-level halt is a no-op; halt matters inside rule actions.
      return CommandResult{};

    case CommandKind::kBeginTxn:
      ARIEL_RETURN_NOT_OK(txn_->BeginExplicit());
      return CommandResult{};
    case CommandKind::kCommitTxn:
      ARIEL_RETURN_NOT_OK(txn_->CommitExplicit());
      return CommandResult{};
    case CommandKind::kAbortTxn: {
      ARIEL_RETURN_NOT_OK(txn_->AbortExplicit());
#ifdef ARIEL_AUDIT
      ARIEL_RETURN_NOT_OK(AuditOrFail("after abort"));
#endif
      return CommandResult{};
    }

    case CommandKind::kShowStats: {
      // Only the reset form reaches the switch (plain show stats is
      // read-only and was routed above). The reset itself is one atomic
      // epoch swap inside the registry: concurrent readers see either the
      // pre-reset or the post-reset view, never a half-zeroed registry.
      CommandResult result;
      result.message = RenderStats();
      Metrics().registry.Reset();
      Metrics().firing_trace.Clear();
      result.message += "(statistics reset)\n";
      return result;
    }

    case CommandKind::kExplainRule:
    case CommandKind::kAnalyzeRules:
      // Read-only diagnostics; unreachable through the routing above, but
      // kept so a direct caller gets the same behaviour.
      return ExecuteReadOnly(command);
  }
  return Status::Internal("unhandled command kind");
}

std::string Database::RenderStats() const {
  EngineMetrics& m = Metrics();
  std::ostringstream os;
  os << "engine statistics:\n" << m.registry.Render();
  os << "batch pipeline: batch_tokens=" << options_.batch_tokens
     << ", match_threads=" << options_.match_threads
     << (options_.batch_tokens == 0 ? " (per-token propagation)" : "")
     << "\n";
  os << "transactions: on_action_error="
     << ActionErrorPolicyToString(options_.on_action_error)
     << ", open_frames=" << txn_->open_frames()
     << ", undo_records=" << txn_->undo_log().size()
     << ", rollbacks=" << txn_->rollbacks()
     << (txn_->in_explicit() ? " (explicit transaction open)" : "")
     << "\n";
  os << "adaptive optimizer: "
     << (adaptive_ == nullptr ? "off" : "on");
  if (adaptive_ != nullptr) {
    os << " (min_gain=" << adaptive_->config().min_gain
       << ", min_tokens=" << adaptive_->config().min_tokens << ")";
  }
  os << "\n";
  for (const Rule* rule : rules_->ActiveRules()) {
    if (rule->network == nullptr) continue;
    RuleObservation obs = CollectObservation(
        *rule->network, &network_.selection_network());
    os << "  " << rule->name << ": "
       << AdaptiveOptimizer::CurrentStrategy(obs).ToString()
       << ", replans=" << rule->replans << "\n";
  }
  const uint64_t total = m.firing_trace.total_recorded();
  if (total > 0) {
    std::vector<FiringTraceEntry> recent = m.firing_trace.Recent(10);
    os << "recent rule firings (" << recent.size() << " of " << total
       << " recorded):\n";
    for (const FiringTraceEntry& entry : recent) {
      os << "  " << entry.ToString() << "\n";
    }
  }
  return os.str();
}

Result<CommandResult> Database::ExecuteReadOnly(
    const Command& command) const {
  switch (command.kind) {
    case CommandKind::kRetrieve:
      return executor_->ExecuteReadOnly(command);

    case CommandKind::kShowStats: {
      const auto& cmd = static_cast<const ShowStatsCommand&>(command);
      if (cmd.reset) {
        return Status::Internal("show stats reset is a mutation");
      }
      CommandResult result;
      result.message = RenderStats();
      return result;
    }

    case CommandKind::kExplainRule: {
      const auto& cmd = static_cast<const ExplainRuleCommand&>(command);
      const Rule* rule = rules_->GetRule(cmd.rule_name);
      if (rule == nullptr) {
        return Status::NotFound("no rule named \"" + cmd.rule_name + "\"");
      }
      std::ostringstream os;
      os << "rule " << rule->name << " (priority " << rule->priority
         << ", " << (rule->active ? "active" : "inactive") << ", fired "
         << rule->times_fired << " time" << (rule->times_fired == 1 ? "" : "s")
         << ")\n";
      if (rule->network == nullptr) {
        os << "  (inactive: no discrimination network installed)\n";
      } else {
        const SelectionNetwork& selection = network_.selection_network();
        os << "selection layer (engine-wide: " << selection.num_indexed()
           << " indexed / " << selection.num_residual()
           << " residual conditions):\n"
           << selection.DescribeRule(rule->network.get());
        os << "join network:\n" << rule->network->ToString();
        RuleObservation obs = CollectObservation(
            *rule->network, &network_.selection_network());
        os << "strategy: "
           << AdaptiveOptimizer::CurrentStrategy(obs).ToString()
           << ", re-planned " << rule->replans << " time"
           << (rule->replans == 1 ? "" : "s") << " (adaptive optimizer "
           << (adaptive_ == nullptr ? "off" : "on") << ")\n";
        const PNode* pnode = rule->network->pnode();
        os << "P-node: " << pnode->size() << " pending instantiation"
           << (pnode->size() == 1 ? "" : "s") << ", "
           << pnode->lifetime_insertions() << " created over its lifetime\n";
      }
      // Static analysis section: who this rule triggers, who triggers it,
      // and any analyzer findings that involve it.
      ARIEL_ASSIGN_OR_RETURN(RuleSetAnalysis analysis,
                             AnalyzeRuleSet(*rules_, catalog_));
      os << analysis.DescribeRule(rule->name);
      CommandResult result;
      result.message = os.str();
      return result;
    }

    case CommandKind::kAnalyzeRules: {
      ARIEL_ASSIGN_OR_RETURN(RuleSetAnalysis analysis,
                             AnalyzeRuleSet(*rules_, catalog_));
      CommandResult result;
      result.message = analysis.Render(/*include_costs=*/true);
      return result;
    }

    default:
      return Status::Internal(
          "ExecuteReadOnly: command kind has no read-only path");
  }
}

Result<CommandResult> Database::ExecuteDml(const Command& command) {
  // One transition per command; a do…end block is a single transition
  // (§2.2.1 — the programmer controls transition boundaries with blocks).
  transitions_->BeginTransition();
  Status status;
  CommandResult result;
  bool halted = false;
  if (command.kind == CommandKind::kBlock) {
    const auto& block = static_cast<const BlockCommand&>(command);
    for (const CommandPtr& inner : block.commands) {
      if (inner->kind == CommandKind::kHalt) {
        // halt inside a block stops the block and suppresses the
        // recognize-act cycle for this transition — the same "stop the
        // whole cycle" semantics it has inside a rule action (Figure 1),
        // not an error.
        halted = true;
        break;
      }
      auto inner_result = executor_->Execute(*inner);
      if (!inner_result.ok()) {
        status = inner_result.status();
        break;
      }
      result.affected += inner_result->affected;
      if (inner_result->rows.has_value()) {
        result.rows = std::move(inner_result->rows);
      }
    }
  } else {
    auto exec_result = executor_->Execute(command);
    if (exec_result.ok()) {
      result = std::move(*exec_result);
    } else {
      status = exec_result.status();
    }
  }
  Status end = transitions_->EndTransition();
  if (status.ok()) status = end;
  ARIEL_RETURN_NOT_OK(status);

  // Rules get the opportunity to wake up after every transition (unless a
  // top-level halt suppressed this cycle).
  if (!halted) {
    ARIEL_RETURN_NOT_OK(monitor_->RunCycle());
  }
  return result;
}

Result<CommandResult> Database::ExecuteTransacted(const Command& command,
                                                  bool ddl) {
  ARIEL_RETURN_NOT_OK(txn_->BeginCommand());
  Result<CommandResult> result =
      ddl ? executor_->Execute(command) : ExecuteDml(command);
  if (result.ok()) {
    ARIEL_RETURN_NOT_OK(txn_->CommitCommand());
  } else {
    // Roll the command and its whole recognize-act cascade back before the
    // error surfaces; the engine returns to its pre-command state.
    ARIEL_RETURN_NOT_OK(txn_->AbortCommand());
  }
#ifdef ARIEL_AUDIT
  // Audit builds cross-check the whole network against recomputed ground
  // truth at every quiescence point — including post-rollback state.
  ARIEL_RETURN_NOT_OK(
      AuditOrFail(result.ok() ? "at quiescence" : "after rollback"));
#endif
  // With the engine quiescent (and outside explicit transactions, whose
  // state may yet roll back), let the adaptive optimizer re-price rule
  // networks against the statistics this command's cascade produced.
  if (result.ok() && !ddl && adaptive_ != nullptr && !txn_->in_explicit()) {
    ARIEL_RETURN_NOT_OK(MaybeAdaptNetworks());
  }
  // With the engine quiescent, deliver subscribed trigger output (alerts
  // queued by an aborted command were truncated by the rollback).
  if (result.ok()) DrainAlerts();
  return result;
}

Status Database::MaybeAdaptNetworks() {
  const SelectionNetwork& selection = network_.selection_network();
  for (Rule* rule : rules_->ActiveRules()) {
    if (rule->network == nullptr) continue;
    // Cheap cadence gate: a full observation + model evaluation only after
    // the rule absorbs a fresh slice of tokens, so a quiescent or settled
    // rule costs one counter comparison per command.
    if (!adaptive_->ShouldEvaluate(rule->name,
                                   rule->network->match_stats().arrivals)) {
      continue;
    }
    Metrics().adaptive_evaluations.Increment();
    RuleObservation obs = CollectObservation(*rule->network, &selection);
    AdaptiveOptimizer::Decision decision = adaptive_->Evaluate(obs);
    if (!decision.replan) continue;
    {
      ScopedTimer timer(Metrics().adaptive_replan_ns);
      ARIEL_RETURN_NOT_OK(rules_->ReplanRule(rule->name, decision.strategy));
    }
#ifdef ARIEL_AUDIT
    // The rebuilt network must be indistinguishable from having run the
    // new shape all along; any divergence is a bug, not a policy matter.
    ARIEL_RETURN_NOT_OK(AuditOrFail("after re-plan"));
#endif
    adaptive_->NoteReplanned(obs);
    Metrics().adaptive_replans.Increment();
    if (rule->network->backend() != decision.current.backend) {
      Metrics().adaptive_backend_switches.Increment();
    }
    if (decision.strategy.alpha_stored != decision.current.alpha_stored) {
      Metrics().adaptive_alpha_switches.Increment();
    }
    if (decision.strategy.join_hash_indexes !=
        decision.current.join_hash_indexes) {
      Metrics().adaptive_index_switches.Increment();
    }
    if (decision.strategy.columnar_exec != decision.current.columnar_exec) {
      Metrics().adaptive_columnar_switches.Increment();
    }
    if (decision.strategy.join_order != decision.current.join_order) {
      Metrics().adaptive_join_order_switches.Increment();
    }
    // The rule's row/column decision becomes the learned per-relation
    // columnar_min_rows override for the relations it ranges over (last
    // writer wins when rules disagree — the most recently re-planned rule
    // has the freshest statistics).
    for (size_t i = 0; i < rule->network->num_vars(); ++i) {
      const HeapRelation* rel = rule->network->alpha(i)->spec().relation;
      optimizer_.set_columnar_min_rows_for(
          rel->id(), decision.strategy.columnar_exec
                         ? options_.optimizer.columnar_min_rows
                         : std::numeric_limits<size_t>::max());
    }
  }
  return Status::OK();
}

Status Database::AuditOrFail(const char* when) {
  ARIEL_ASSIGN_OR_RETURN(std::vector<AuditViolation> violations,
                         AuditNetwork());
  if (violations.empty()) return Status::OK();
  std::string detail = violations.front().ToString();
  if (violations.size() > 1) {
    detail +=
        " (+" + std::to_string(violations.size() - 1) + " more violations)";
  }
  return Status::Internal(std::string("A-TREAT network audit failed ") +
                          when + ": " + detail);
}

Result<std::vector<AuditViolation>> Database::AuditNetwork() {
  std::vector<const RuleNetwork*> networks;
  for (Rule* rule : rules_->ActiveRules()) {
    networks.push_back(rule->network.get());
  }
  ARIEL_ASSIGN_OR_RETURN(std::vector<AuditViolation> violations,
                         NetworkAuditor::AuditAtQuiescence(
                             networks, network_.selection_network()));
  // Every materialized heap column cache must mirror its relation
  // cell-for-cell (the batches columnar scans read).
  for (const std::string& rel_name : catalog_.RelationNames()) {
    HeapRelation* relation = catalog_.GetRelation(rel_name);
    if (relation == nullptr) continue;
    if (std::string problem = relation->AuditColumnCache(); !problem.empty()) {
      violations.push_back(AuditViolation{
          AuditViolationKind::kColumnCacheIncoherent,
          "relation " + rel_name, std::move(problem)});
    }
  }
  // A flushed batch must leave nothing behind: no deferred tokens in the
  // transition manager, no rule still staging P-node deltas.
  if (transitions_->pending_batch_tokens() > 0) {
    violations.push_back(AuditViolation{
        AuditViolationKind::kStagedDeltasPending, "transition-manager",
        std::to_string(transitions_->pending_batch_tokens()) +
            " token(s) still deferred in the batch at quiescence"});
  }
  // At quiescence the undo layer must be clean: no command or firing frame
  // still open, and no undo records outside an explicit transaction.
  if (txn_ != nullptr && txn_->HasResidueAtQuiescence()) {
    violations.push_back(AuditViolation{
        AuditViolationKind::kUndoResidue, "transaction-context",
        std::to_string(txn_->open_frames()) + " open frame(s) and " +
            std::to_string(txn_->undo_log().size()) +
            " undo record(s) at quiescence"});
  }
  return violations;
}

Status Database::RefreshSystemCatalogs() {
  // (Re)create each snapshot relation if missing, clear it, and fill it
  // directly — bypassing the gateway, so no tokens and no rule wake-ups.
  auto rebuild = [&](const char* name,
                     Schema schema) -> Result<HeapRelation*> {
    HeapRelation* rel = catalog_.GetRelation(name);
    if (rel == nullptr) {
      ARIEL_ASSIGN_OR_RETURN(rel, catalog_.CreateRelation(name, schema));
    }
    for (TupleId tid : rel->AllTupleIds()) {
      // Snapshot rebuild, not base data.
      ARIEL_RETURN_NOT_OK(rel->Delete(tid));  // ariel-lint: allow(gateway-mutation)
    }
    return rel;
  };

  ARIEL_ASSIGN_OR_RETURN(
      HeapRelation * relations,
      rebuild(kSysRelations, Schema({Attribute{"name", DataType::kString},
                                     Attribute{"tuples", DataType::kInt},
                                     Attribute{"indexes", DataType::kInt}})));
  for (const std::string& name : catalog_.RelationNames()) {
    const HeapRelation* rel = catalog_.GetRelation(name);
    ARIEL_RETURN_NOT_OK(
        relations
            ->Insert(  // ariel-lint: allow(gateway-mutation) snapshot
                Tuple(std::vector<Value>{
                Value::String(name),
                Value::Int(static_cast<int64_t>(
                    name == kSysRelations || name == kSysRules
                        ? 0  // being rebuilt; counts are not meaningful
                        : rel->size())),
                Value::Int(static_cast<int64_t>(
                    rel->IndexedAttributes().size()))}))
            .status());
  }

  ARIEL_ASSIGN_OR_RETURN(
      HeapRelation * rules,
      rebuild(kSysRules, Schema({Attribute{"name", DataType::kString},
                                 Attribute{"ruleset", DataType::kString},
                                 Attribute{"priority", DataType::kFloat},
                                 Attribute{"active", DataType::kInt},
                                 Attribute{"fired", DataType::kInt}})));
  for (const std::string& name : rules_->RuleNames()) {
    const Rule* rule = rules_->GetRule(name);
    ARIEL_RETURN_NOT_OK(
        rules
            ->Insert(  // ariel-lint: allow(gateway-mutation) snapshot
                Tuple(std::vector<Value>{
                Value::String(rule->name), Value::String(rule->ruleset),
                Value::Float(rule->priority),
                Value::Int(rule->active ? 1 : 0),
                Value::Int(static_cast<int64_t>(rule->times_fired))}))
            .status());
  }
  return Status::OK();
}

Result<std::string> Database::ExplainPlan(std::string_view command_text) {
  ARIEL_ASSIGN_OR_RETURN(CommandPtr command, ParseCommand(command_text));
  ARIEL_ASSIGN_OR_RETURN(Plan plan, executor_->PlanFor(*command));
  return plan.ToString();
}

// --- TransactionHooks ------------------------------------------------------

namespace {

/// The history-dependent engine state a savepoint captures: conflict sets
/// (drained instantiations cannot be recomputed from base relations) plus
/// the pending-alert queue length (undo tokens carry no event specifier, so
/// rollback cannot cancel queued alerts the way an in-transition retraction
/// does).
struct EngineSnapshot : EngineStateSnapshot {
  std::vector<std::pair<std::string, PNode::State>> pnodes;  // by rule name
  size_t pending_alert_count = 0;
};

}  // namespace

Status Database::ApplyUndo(UndoRecord* record) {
  switch (record->kind) {
    case UndoKind::kInsert: {
      HeapRelation* rel = catalog_.GetRelationById(record->relation_id);
      if (rel == nullptr) {
        return Status::Internal("undo of insert: relation id " +
                                std::to_string(record->relation_id) +
                                " no longer exists");
      }
      return transitions_->CompensateInsert(rel, record->tid);
    }
    case UndoKind::kDelete: {
      HeapRelation* rel = catalog_.GetRelationById(record->relation_id);
      if (rel == nullptr) {
        return Status::Internal("undo of delete: relation id " +
                                std::to_string(record->relation_id) +
                                " no longer exists");
      }
      return transitions_->CompensateDelete(rel, record->tid, record->before);
    }
    case UndoKind::kUpdate: {
      HeapRelation* rel = catalog_.GetRelationById(record->relation_id);
      if (rel == nullptr) {
        return Status::Internal("undo of update: relation id " +
                                std::to_string(record->relation_id) +
                                " no longer exists");
      }
      return transitions_->CompensateUpdate(rel, record->tid, record->before);
    }
    case UndoKind::kCreateRelation:
      // Tuple records for anything inserted into the new relation sit above
      // this one and were already compensated; the relation is empty.
      return catalog_.DropRelation(record->name);
    case UndoKind::kDropRelation:
      return catalog_.Adopt(std::move(record->detached));
    case UndoKind::kCreateIndex: {
      HeapRelation* rel = catalog_.GetRelationById(record->relation_id);
      if (rel == nullptr) {
        return Status::Internal("undo of define index: relation id " +
                                std::to_string(record->relation_id) +
                                " no longer exists");
      }
      ARIEL_RETURN_NOT_OK(rel->DropIndex(record->name));
      catalog_.BumpVersion();
      return Status::OK();
    }
    case UndoKind::kRuleFired: {
      Rule* rule = rules_->GetRule(record->name);
      if (rule != nullptr) rule->times_fired = record->prev_count;
      return Status::OK();
    }
  }
  return Status::Internal("unhandled undo record kind");
}

Result<std::unique_ptr<EngineStateSnapshot>> Database::CaptureEngineState() {
  auto snapshot = std::make_unique<EngineSnapshot>();
  for (Rule* rule : rules_->ActiveRules()) {
    snapshot->pnodes.emplace_back(rule->name,
                                  rule->network->pnode()->CaptureState());
  }
  snapshot->pending_alert_count = pending_alerts_.size();
  return std::unique_ptr<EngineStateSnapshot>(std::move(snapshot));
}

Status Database::RestoreEngineState(const EngineStateSnapshot& snapshot) {
  const auto& snap = static_cast<const EngineSnapshot&>(snapshot);
  for (const auto& [name, state] : snap.pnodes) {
    Rule* rule = rules_->GetRule(name);
    // A rule deactivated/removed since the snapshot has no conflict set to
    // restore (rule administration is not undoable; see DESIGN.md §9).
    if (rule == nullptr || rule->network == nullptr) continue;
    ARIEL_RETURN_NOT_OK(rule->network->pnode()->RestoreState(state));
  }
  if (pending_alerts_.size() > snap.pending_alert_count) {
    pending_alerts_.resize(snap.pending_alert_count);
  }
  return Status::OK();
}

void Database::BeginCompensation() { transitions_->BeginCompensation(); }

void Database::EndCompensation() { transitions_->EndCompensation(); }

std::string Database::DebugDumpState() {
  std::ostringstream os;
  for (const std::string& name : catalog_.RelationNames()) {
    const HeapRelation* rel = catalog_.GetRelation(name);
    os << "relation " << name << " (" << rel->size() << " tuples)\n";
    for (TupleId tid : rel->AllTupleIds()) {
      const Tuple* t = rel->Get(tid);
      os << "  " << tid.ToString() << " " << t->ToString() << "\n";
    }
    std::vector<std::string> indexed = rel->IndexedAttributes();
    std::sort(indexed.begin(), indexed.end());
    for (const std::string& attr : indexed) os << "  index " << attr << "\n";
  }
  for (const std::string& name : rules_->RuleNames()) {
    const Rule* rule = rules_->GetRule(name);
    os << "rule " << name << " (" << (rule->active ? "active" : "inactive")
       << ", fired " << rule->times_fired << ")\n";
    if (rule->network == nullptr) continue;
    const RuleNetwork& network = *rule->network;
    for (size_t i = 0; i < network.num_vars(); ++i) {
      const AlphaMemory& alpha = *network.alpha(i);
      if (!alpha.stores_tuples()) continue;
      std::vector<std::string> entries;
      for (const AlphaEntry& entry : alpha.entries()) {
        std::string line = entry.tid.ToString() + " " + entry.value.ToString();
        if (alpha.is_transition()) line += " prev " + entry.previous.ToString();
        entries.push_back(std::move(line));
      }
      std::sort(entries.begin(), entries.end());
      os << "  alpha[" << i << "] (" << entries.size() << " entries)\n";
      for (const std::string& line : entries) os << "    " << line << "\n";
    }
    for (size_t level = 0; level < network.beta_memories().size(); ++level) {
      const BetaMemory& beta = network.beta_memories()[level];
      std::vector<std::string> rows;
      for (const Row& row : beta.rows()) {
        std::string line;
        for (size_t v = 0; v < row.num_vars(); ++v) {
          if (!row.filled[v]) continue;
          line += row.tids[v].ToString() + "=" + row.current[v].ToString() +
                  " ";
        }
        rows.push_back(std::move(line));
      }
      std::sort(rows.begin(), rows.end());
      os << "  beta[" << level << "] (" << rows.size() << " rows)\n";
      for (const std::string& line : rows) os << "    " << line << "\n";
    }
    const PNode* pnode = network.pnode();
    os << "  pnode (" << pnode->size() << " instantiations, "
       << pnode->lifetime_insertions() << " lifetime)\n";
    const HeapRelation& prel = pnode->relation();
    for (TupleId tid : prel.AllTupleIds()) {
      os << "    " << tid.ToString() << " " << prel.Get(tid)->ToString()
         << "\n";
    }
  }
  os << "firing trace (" << Metrics().firing_trace.total_recorded()
     << " recorded)\n";
  for (const FiringTraceEntry& entry : Metrics().firing_trace.Recent(256)) {
    // wall_ms and transition ids are excluded: both advance even for work
    // that is later rolled back, and neither is logical engine state.
    os << "  " << entry.rule << " <- " << entry.trigger << " ("
       << entry.instantiations << " instantiations)\n";
  }
  os << "pending alerts: " << pending_alerts_.size() << "\n";
  os << "txn: open_frames=" << txn_->open_frames()
     << " undo_records=" << txn_->undo_log().size() << "\n";
  return os.str();
}

}  // namespace ariel
