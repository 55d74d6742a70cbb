#include "util/metrics.h"

#include <algorithm>
#include <sstream>

namespace ariel {

namespace metrics_internal {

/// One reset epoch: the raw cell values captured at Reset() time, indexed
/// by each cell's registration ordinal. Immutable once published; reads
/// subtract it. Cells registered after the capture fall past the end of a
/// vector and keep a zero baseline.
struct Baseline {
  std::vector<uint64_t> counters;
  std::vector<int64_t> gauges;
  std::vector<HistogramData> histograms;
};

}  // namespace metrics_internal

namespace {

uint64_t SaturatingSub(uint64_t a, uint64_t b) { return a > b ? a - b : 0; }

/// Reads one histogram cell and subtracts the baseline (when the cell is
/// older than the epoch).
HistogramData ReadHistogramCell(const metrics_internal::HistogramCell& cell,
                                const metrics_internal::Baseline* base) {
  HistogramData data;
  data.count = cell.count.load(std::memory_order_relaxed);
  data.sum = cell.sum.load(std::memory_order_relaxed);
  for (size_t b = 0; b < data.buckets.size(); ++b) {
    data.buckets[b] = cell.buckets[b].load(std::memory_order_relaxed);
  }
  if (base != nullptr && cell.index < base->histograms.size()) {
    const HistogramData& zero = base->histograms[cell.index];
    data.count = SaturatingSub(data.count, zero.count);
    data.sum = SaturatingSub(data.sum, zero.sum);
    for (size_t b = 0; b < data.buckets.size(); ++b) {
      data.buckets[b] = SaturatingSub(data.buckets[b], zero.buckets[b]);
    }
  }
  return data;
}

}  // namespace

uint64_t HistogramData::ApproxQuantile(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
  if (rank >= count) rank = count - 1;
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen > rank) {
      // Upper bound of bucket b: 0 for b == 0, else 2^b - 1.
      return b == 0 ? 0 : (uint64_t{1} << std::min<size_t>(b, 63)) - 1;
    }
  }
  return ~uint64_t{0};
}

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

Counter MetricsRegistry::RegisterCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counter_index_.find(name);
  if (it != counter_index_.end()) return Counter(it->second, &baseline_);
  counters_.emplace_back();
  counters_.back().name = name;
  counters_.back().index = counters_.size() - 1;
  counter_index_.emplace(name, &counters_.back());
  return Counter(&counters_.back(), &baseline_);
}

Gauge MetricsRegistry::RegisterGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauge_index_.find(name);
  if (it != gauge_index_.end()) return Gauge(it->second, &baseline_);
  gauges_.emplace_back();
  gauges_.back().name = name;
  gauges_.back().index = gauges_.size() - 1;
  gauge_index_.emplace(name, &gauges_.back());
  return Gauge(&gauges_.back(), &baseline_);
}

Histogram MetricsRegistry::RegisterHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histogram_index_.find(name);
  if (it != histogram_index_.end()) return Histogram(it->second, &baseline_);
  histograms_.emplace_back();
  histograms_.back().name = name;
  histograms_.back().index = histograms_.size() - 1;
  histogram_index_.emplace(name, &histograms_.back());
  return Histogram(&histograms_.back(), &baseline_);
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  auto epoch = std::make_unique<metrics_internal::Baseline>();
  epoch->counters.reserve(counters_.size());
  for (const auto& c : counters_) {
    epoch->counters.push_back(c.value.load(std::memory_order_relaxed));
  }
  epoch->gauges.reserve(gauges_.size());
  for (const auto& g : gauges_) {
    epoch->gauges.push_back(g.value.load(std::memory_order_relaxed));
  }
  epoch->histograms.reserve(histograms_.size());
  for (const auto& h : histograms_) {
    epoch->histograms.push_back(ReadHistogramCell(h, nullptr));
  }
  // One release store publishes the whole epoch; readers acquire-load the
  // pointer once per read, so they see the entire old or entire new epoch.
  // Retired baselines are kept alive for stragglers mid-dereference.
  const metrics_internal::Baseline* published = epoch.get();
  old_baselines_.push_back(std::move(epoch));
  baseline_.store(published, std::memory_order_release);
}

uint64_t Counter::value() const {
  if (cell_ == nullptr) return 0;
  const uint64_t raw = cell_->value.load(std::memory_order_relaxed);
  const metrics_internal::Baseline* base =
      baseline_ != nullptr ? baseline_->load(std::memory_order_acquire)
                           : nullptr;
  if (base != nullptr && cell_->index < base->counters.size()) {
    return SaturatingSub(raw, base->counters[cell_->index]);
  }
  return raw;
}

void Gauge::Set(int64_t v) const {
#ifndef ARIEL_NO_METRICS
  if (cell_ == nullptr) return;
  // Re-anchor against the current epoch so value() reads exactly `v`: the
  // cell stores raw = v + baseline. A Reset racing this store (cold paths
  // both) can skew the gauge by at most the pre-Set value until the next
  // Set re-anchors; in the engine both run on the serialized write path.
  int64_t base = 0;
  const metrics_internal::Baseline* epoch =
      baseline_ != nullptr ? baseline_->load(std::memory_order_acquire)
                           : nullptr;
  if (epoch != nullptr && cell_->index < epoch->gauges.size()) {
    base = epoch->gauges[cell_->index];
  }
  cell_->value.store(v + base, std::memory_order_relaxed);
#else
  (void)v;
#endif
}

int64_t Gauge::value() const {
  if (cell_ == nullptr) return 0;
  const int64_t raw = cell_->value.load(std::memory_order_relaxed);
  const metrics_internal::Baseline* base =
      baseline_ != nullptr ? baseline_->load(std::memory_order_acquire)
                           : nullptr;
  if (base != nullptr && cell_->index < base->gauges.size()) {
    return raw - base->gauges[cell_->index];
  }
  return raw;
}

HistogramData Histogram::Snapshot() const {
  if (cell_ == nullptr) return HistogramData{};
  const metrics_internal::Baseline* base =
      baseline_ != nullptr ? baseline_->load(std::memory_order_acquire)
                           : nullptr;
  return ReadHistogramCell(*cell_, base);
}

std::vector<std::pair<std::string, uint64_t>>
MetricsRegistry::CountersLocked() const {
  const metrics_internal::Baseline* base =
      baseline_.load(std::memory_order_acquire);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& c : counters_) {
    uint64_t v = c.value.load(std::memory_order_relaxed);
    if (base != nullptr && c.index < base->counters.size()) {
      v = SaturatingSub(v, base->counters[c.index]);
    }
    out.emplace_back(c.name, v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, int64_t>> MetricsRegistry::GaugesLocked()
    const {
  const metrics_internal::Baseline* base =
      baseline_.load(std::memory_order_acquire);
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(gauges_.size());
  for (const auto& g : gauges_) {
    int64_t v = g.value.load(std::memory_order_relaxed);
    if (base != nullptr && g.index < base->gauges.size()) {
      v -= base->gauges[g.index];
    }
    out.emplace_back(g.name, v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, HistogramData>>
MetricsRegistry::HistogramsLocked() const {
  const metrics_internal::Baseline* base =
      baseline_.load(std::memory_order_acquire);
  std::vector<std::pair<std::string, HistogramData>> out;
  out.reserve(histograms_.size());
  for (const auto& h : histograms_) {
    out.emplace_back(h.name, ReadHistogramCell(h, base));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::vector<std::pair<std::string, uint64_t>> MetricsRegistry::Counters()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return CountersLocked();
}

std::vector<std::pair<std::string, int64_t>> MetricsRegistry::Gauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  return GaugesLocked();
}

std::vector<std::pair<std::string, HistogramData>>
MetricsRegistry::Histograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return HistogramsLocked();
}

std::string MetricsRegistry::Render() const {
  // One lock hold across all three enumerations: a concurrent Reset either
  // lands wholly before this render or wholly after it.
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "counters:\n";
  size_t shown = 0;
  for (const auto& [name, value] : CountersLocked()) {
    if (value == 0) continue;
    os << "  " << name << " = " << value << "\n";
    ++shown;
  }
  for (const auto& [name, value] : GaugesLocked()) {
    if (value == 0) continue;
    os << "  " << name << " = " << value << "\n";
    ++shown;
  }
  if (shown == 0) os << "  (all zero)\n";
  bool header = false;
  for (const auto& [name, data] : HistogramsLocked()) {
    if (data.count == 0) continue;
    if (!header) {
      os << "timers:\n";
      header = true;
    }
    os << "  " << name << ": count=" << data.count
       << " mean=" << static_cast<uint64_t>(data.Mean())
       << " p50<=" << data.ApproxQuantile(0.5)
       << " p99<=" << data.ApproxQuantile(0.99) << "\n";
  }
  return os.str();
}

std::string FiringTraceEntry::ToString() const {
  std::ostringstream os;
  os << "#" << seq << " " << rule << " <- " << trigger << " (transition "
     << transition_id << ", " << wall_ms << " ms, " << instantiations
     << " instantiation" << (instantiations == 1 ? "" : "s") << ")";
  return os.str();
}

void FiringTraceRing::Push(FiringTraceEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  entry.seq = next_seq_++;
  entries_.push_back(std::move(entry));
  while (entries_.size() > capacity_) entries_.pop_front();
}

std::vector<FiringTraceEntry> FiringTraceRing::Recent(size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t take = std::min(n, entries_.size());
  return std::vector<FiringTraceEntry>(entries_.end() - take, entries_.end());
}

uint64_t FiringTraceRing::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_ - 1;
}

void FiringTraceRing::TruncateTo(uint64_t total_mark) {
  std::lock_guard<std::mutex> lock(mu_);
  while (!entries_.empty() && entries_.back().seq > total_mark) {
    entries_.pop_back();
  }
  if (next_seq_ > total_mark + 1) next_seq_ = total_mark + 1;
}

void FiringTraceRing::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  next_seq_ = 1;
}

EngineMetrics::EngineMetrics()
    : tokens_emitted(registry.RegisterCounter("tokens_emitted")),
      tokens_plus(registry.RegisterCounter("tokens_plus")),
      tokens_minus(registry.RegisterCounter("tokens_minus")),
      tokens_delta_plus(registry.RegisterCounter("tokens_delta_plus")),
      tokens_delta_minus(registry.RegisterCounter("tokens_delta_minus")),
      delta_case1_reexpressed(
          registry.RegisterCounter("delta_case1_reexpressed")),
      delta_case2_net_nothing(
          registry.RegisterCounter("delta_case2_net_nothing")),
      delta_case3_first_modify(
          registry.RegisterCounter("delta_case3_first_modify")),
      delta_case3_later_modify(
          registry.RegisterCounter("delta_case3_later_modify")),
      delta_case4_modified_delete(
          registry.RegisterCounter("delta_case4_modified_delete")),
      transitions(registry.RegisterCounter("transitions")),
      selection_tokens(registry.RegisterCounter("selection_tokens")),
      selection_stabs(registry.RegisterCounter("selection_stabs")),
      selection_residual_checks(
          registry.RegisterCounter("selection_residual_checks")),
      selection_predicate_evals(
          registry.RegisterCounter("selection_predicate_evals")),
      selection_matches(registry.RegisterCounter("selection_matches")),
      isl_node_visits(registry.RegisterCounter("isl_node_visits")),
      alpha_arrivals(registry.RegisterCounter("alpha_arrivals")),
      alpha_insertions(registry.RegisterCounter("alpha_insertions")),
      alpha_removals(registry.RegisterCounter("alpha_removals")),
      virtual_alpha_scans(registry.RegisterCounter("virtual_alpha_scans")),
      join_probes(registry.RegisterCounter("join_probes")),
      join_index_probes(registry.RegisterCounter("join_index_probes")),
      join_hash_probes(registry.RegisterCounter("join_hash_probes")),
      join_hash_hits(registry.RegisterCounter("join_hash_hits")),
      join_scan_fallbacks(registry.RegisterCounter("join_scan_fallbacks")),
      pnode_bindings_created(
          registry.RegisterCounter("pnode_bindings_created")),
      pnode_bindings_removed(
          registry.RegisterCounter("pnode_bindings_removed")),
      pnode_bindings_consumed(
          registry.RegisterCounter("pnode_bindings_consumed")),
      plans_built(registry.RegisterCounter("plans_built")),
      plan_cache_hits(registry.RegisterCounter("plan_cache_hits")),
      tuples_scanned(registry.RegisterCounter("tuples_scanned")),
      values_copied(registry.RegisterCounter("values_copied")),
      columnar_batches_built(
          registry.RegisterCounter("columnar_batches_built")),
      columnar_batch_invalidations(
          registry.RegisterCounter("columnar_batch_invalidations")),
      columnar_scans(registry.RegisterCounter("columnar_scans")),
      columnar_scan_rows(registry.RegisterCounter("columnar_scan_rows")),
      columnar_row_fallbacks(
          registry.RegisterCounter("columnar_row_fallbacks")),
      columnar_join_prefiltered(
          registry.RegisterCounter("columnar_join_prefiltered")),
      columnar_classified_tokens(
          registry.RegisterCounter("columnar_classified_tokens")),
      rules_fired(registry.RegisterCounter("rules_fired")),
      cycles_run(registry.RegisterCounter("cycles_run")),
      batch_flushes(registry.RegisterCounter("batch_flushes")),
      match_tasks(registry.RegisterCounter("match_tasks")),
      match_steal_count(registry.RegisterCounter("match_steal_count")),
      server_connections_accepted(
          registry.RegisterCounter("server_connections_accepted")),
      server_connections_rejected(
          registry.RegisterCounter("server_connections_rejected")),
      server_connections_closed(
          registry.RegisterCounter("server_connections_closed")),
      server_commands(registry.RegisterCounter("server_commands")),
      server_bytes_read(registry.RegisterCounter("server_bytes_read")),
      server_bytes_written(registry.RegisterCounter("server_bytes_written")),
      server_frame_errors(registry.RegisterCounter("server_frame_errors")),
      server_backpressure_stalls(
          registry.RegisterCounter("server_backpressure_stalls")),
      server_idle_disconnects(
          registry.RegisterCounter("server_idle_disconnects")),
      server_txn_aborts_on_disconnect(
          registry.RegisterCounter("server_txn_aborts_on_disconnect")),
      server_active_connections(
          registry.RegisterGauge("server_active_connections")),
      txn_undo_records(registry.RegisterCounter("txn_undo_records")),
      txn_rollbacks(registry.RegisterCounter("txn_rollbacks")),
      txn_rule_aborts(registry.RegisterCounter("txn_rule_aborts")),
      txn_ignored_action_errors(
          registry.RegisterCounter("txn_ignored_action_errors")),
      txn_active_savepoints(
          registry.RegisterGauge("txn_active_savepoints")),
      adaptive_evaluations(registry.RegisterCounter("adaptive_evaluations")),
      adaptive_replans(registry.RegisterCounter("adaptive_replans")),
      adaptive_backend_switches(
          registry.RegisterCounter("adaptive_backend_switches")),
      adaptive_alpha_switches(
          registry.RegisterCounter("adaptive_alpha_switches")),
      adaptive_index_switches(
          registry.RegisterCounter("adaptive_index_switches")),
      adaptive_columnar_switches(
          registry.RegisterCounter("adaptive_columnar_switches")),
      adaptive_join_order_switches(
          registry.RegisterCounter("adaptive_join_order_switches")),
      token_process_ns(registry.RegisterHistogram("token_process_ns")),
      rule_firing_ns(registry.RegisterHistogram("rule_firing_ns")),
      batch_tokens_per_flush(
          registry.RegisterHistogram("batch_tokens_per_flush")),
      batch_select_ns(registry.RegisterHistogram("batch_select_ns")),
      batch_match_ns(registry.RegisterHistogram("batch_match_ns")),
      batch_merge_ns(registry.RegisterHistogram("batch_merge_ns")),
      txn_rollback_ns(registry.RegisterHistogram("txn_rollback_ns")),
      server_command_ns(registry.RegisterHistogram("server_command_ns")),
      adaptive_replan_ns(registry.RegisterHistogram("adaptive_replan_ns")) {}

EngineMetrics& Metrics() {
  // Intentionally leaked: handles embedded across the engine hold raw cell
  // pointers, so the registry must outlive every other static destructor.
  static EngineMetrics* metrics = new EngineMetrics();  // ariel-lint: allow(raw-new)
  return *metrics;
}

}  // namespace ariel
