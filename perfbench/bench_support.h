// Shared pieces of the end-to-end benchmark: seeded randomness, latency
// statistics, the in-memory span tracer, engine-counter snapshots and the
// result line. Nothing here reaches into the engine's internals: counters
// are read through the public Metrics() registry, spans are recorded around
// the benchmark's own calls into the engine's public API.

#ifndef ARIEL_PERFBENCH_BENCH_SUPPORT_H_
#define ARIEL_PERFBENCH_BENCH_SUPPORT_H_

#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/metrics.h"
#include "util/random.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread: unlike wall time, it does not count the
/// time the thread waited while another thread of the process ran.
inline int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Seeded generator for workload inputs. Sub-streams (one per client, one
/// per setup repetition) are derived with splitmix64 so that neighbouring
/// seeds give unrelated streams.
inline uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// FNV-1a 64 over a byte string: the state digest printed by every run.
inline uint64_t Digest(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Nearest-rank quantile of an unsorted sample (copied, then sorted).
inline double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index =
      std::min(samples.size() - 1,
               static_cast<size_t>(std::max(1.0, rank)) - 1);
  return samples[index];
}

/// Median of an unsorted sample; the mean of the middle two when even.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + mid);
  return (lower + upper) / 2;
}

inline double Ratio(double numerator, double denominator) {
  return denominator == 0 ? 0.0 : numerator / denominator;
}

// ---------------------------------------------------------------------------
// Host gauge
// ---------------------------------------------------------------------------

/// A fixed piece of work that uses none of the engine's code: regex
/// matching, stream formatting and ordered-map updates from the standard
/// library over command-like text. Like the engine, it runs a lot of
/// branchy library code on small heap objects.
///
/// The benchmark runs on a few cores of a shared host. Over seconds, the
/// same commands there take anywhere from 1x to 1.9x their quiet-host time,
/// in phases that come and go within a run, while a run of tight arithmetic
/// or pointer-chasing loops slows by far less. Code with a large footprint
/// of branches and calls, such as the engine or this gauge, slows most.
/// Timing a gauge pass every few milliseconds next to the commands measures
/// the host's speed in each slice, so the commands' figures can be given at
/// one reference speed (see HostFactor).
class HostGauge {
 public:
  /// A pass's time on the reference host when it is quiet.
  static constexpr double kReferenceUs = 250.0;

  HostGauge() : field_(R"((\w+)\s*=\s*(\d+|"[^"]*")\s*(,|\)))") {}

  /// Runs one pass and returns the CPU time it took, in microseconds.
  double PassUs() {
    static constexpr const char* kTexts[] = {
        "replace emp (sal = 12345, name = \"e17\") where emp.id = 17",
        "append emp (id = 1001, name = \"new\", sal = 4000, dno = 3)",
        "retrieve (emp.name, emp.sal) where emp.id = 42",
        "delete emp where emp.id = 1001"};
    const int64_t t0 = ThreadCpuNs();
    size_t hits = 0;
    for (int rep = 0; rep < 8; ++rep) {
      for (const char* t : kTexts) {
        const std::string text(t);
        for (std::sregex_iterator it(text.begin(), text.end(), field_), end;
             it != end; ++it) {
          counts_[(*it)[1].str()] += static_cast<size_t>((*it)[2].length());
          ++hits;
        }
        std::ostringstream os;
        os << static_cast<double>(text.size()) * 1.5 << ' ' << hits << ' '
           << text.substr(0, 7);
        counts_[os.str()] = hits;
      }
      if (counts_.size() > 256) counts_.clear();
    }
    sink_ += hits;
    return static_cast<double>(ThreadCpuNs() - t0) / 1e3;
  }

 private:
  std::regex field_;
  std::map<std::string, size_t> counts_;
  size_t sink_ = 0;
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed call. `parent` indexes the enclosing span in the same tracer
/// (-1 for a root); spans of one command share `command`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t command = 0;
};

/// Per-name aggregate of span self time: a span's duration minus the part
/// its child spans cover.
struct SelfTime {
  uint64_t count = 0;
  double self_ns = 0;

  double MeanUs() const { return count == 0 ? 0.0 : self_ns / count / 1e3; }
};

/// Keeps spans in memory for the whole run; they are written out once, when
/// the run ends. Not thread-safe: each thread that records spans owns one.
/// A disabled tracer records nothing and costs one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }

  int32_t Begin(const char* name, int32_t parent, uint64_t command) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, NowNs(), 0, parent, command});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  void End(int32_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }

  /// Appends another tracer's spans (re-basing their parent indexes).
  void Absorb(const Tracer& other) {
    const int32_t base = static_cast<int32_t>(spans_.size());
    for (Span span : other.spans_) {
      if (span.parent >= 0) span.parent += base;
      spans_.push_back(span);
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name. Children of one span never overlap (every
  /// recorder is single-threaded), so the covered part is their sum.
  std::unordered_map<std::string, SelfTime> SelfTimes() const {
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] +=
            static_cast<double>(span.end_ns - span.start_ns);
      }
    }
    std::unordered_map<std::string, SelfTime> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      SelfTime& agg = out[spans_[i].name];
      ++agg.count;
      agg.self_ns +=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) -
          child_ns[i];
    }
    return out;
  }

  /// Writes one JSON object per span. Returns false on an I/O error.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d,\"command\":%llu}\n",
                   i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.command));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int32_t parent,
             uint64_t command)
      : tracer_(tracer), id_(tracer->Begin(name, parent, command)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int32_t id_;
};

// ---------------------------------------------------------------------------
// Engine counters
// ---------------------------------------------------------------------------

/// The registry counters and histogram sums the per-layer metrics are
/// derived from. `Read` takes them at one instant; subtracting two readings
/// gives the work a section of the run did.
enum Field : size_t {
  kTuplesScanned,
  kPlansBuilt,
  kValuesCopied,
  kTokensEmitted,
  kIslNodeVisits,
  kSelectionPredicateEvals,
  kSelectionMatches,
  kJoinProbes,
  kJoinScanFallbacks,
  kColumnarJoinPrefiltered,
  kAlphaRemovals,
  kPnodeBindingsCreated,
  kRulesFired,
  kTxnUndoRecords,
  kTxnRollbacks,
  kColumnarBatchesBuilt,
  kColumnarBatchInvalidations,
  kServerBytes,  // read + written
  kServerBackpressureStalls,
  kTokenProcessCount,
  kTokenProcessNs,
  kRuleFiringCount,
  kRuleFiringNs,
  kServerCommandCount,
  kServerCommandNs,
  kFieldCount
};

struct EngineCounters {
  std::array<double, kFieldCount> v{};

  double operator[](Field f) const { return v[f]; }

  static EngineCounters Read() {
    ariel::EngineMetrics& m = ariel::Metrics();
    auto c = [](const ariel::Counter& counter) {
      return static_cast<double>(counter.value());
    };
    EngineCounters e;
    e.v[kTuplesScanned] = c(m.tuples_scanned);
    e.v[kPlansBuilt] = c(m.plans_built);
    e.v[kValuesCopied] = c(m.values_copied);
    e.v[kTokensEmitted] = c(m.tokens_emitted);
    e.v[kIslNodeVisits] = c(m.isl_node_visits);
    e.v[kSelectionPredicateEvals] = c(m.selection_predicate_evals);
    e.v[kSelectionMatches] = c(m.selection_matches);
    e.v[kJoinProbes] = c(m.join_probes);
    e.v[kJoinScanFallbacks] = c(m.join_scan_fallbacks);
    e.v[kColumnarJoinPrefiltered] = c(m.columnar_join_prefiltered);
    e.v[kAlphaRemovals] = c(m.alpha_removals);
    e.v[kPnodeBindingsCreated] = c(m.pnode_bindings_created);
    e.v[kRulesFired] = c(m.rules_fired);
    e.v[kTxnUndoRecords] = c(m.txn_undo_records);
    e.v[kTxnRollbacks] = c(m.txn_rollbacks);
    e.v[kColumnarBatchesBuilt] = c(m.columnar_batches_built);
    e.v[kColumnarBatchInvalidations] = c(m.columnar_batch_invalidations);
    e.v[kServerBytes] = c(m.server_bytes_read) + c(m.server_bytes_written);
    e.v[kServerBackpressureStalls] = c(m.server_backpressure_stalls);
    const ariel::HistogramData token = m.token_process_ns.Snapshot();
    const ariel::HistogramData firing = m.rule_firing_ns.Snapshot();
    const ariel::HistogramData command = m.server_command_ns.Snapshot();
    e.v[kTokenProcessCount] = static_cast<double>(token.count);
    e.v[kTokenProcessNs] = static_cast<double>(token.sum);
    e.v[kRuleFiringCount] = static_cast<double>(firing.count);
    e.v[kRuleFiringNs] = static_cast<double>(firing.sum);
    e.v[kServerCommandCount] = static_cast<double>(command.count);
    e.v[kServerCommandNs] = static_cast<double>(command.sum);
    return e;
  }

  EngineCounters Minus(const EngineCounters& before) const {
    EngineCounters d;
    for (size_t i = 0; i < kFieldCount; ++i) d.v[i] = v[i] - before.v[i];
    return d;
  }
};

// ---------------------------------------------------------------------------
// Result line
// ---------------------------------------------------------------------------

struct MetricValue {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Prints the run's last stdout line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}.
inline void PrintResultLine(bool correct, uint64_t attempted, uint64_t failed,
                            const std::vector<MetricValue>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

#endif  // ARIEL_PERFBENCH_BENCH_SUPPORT_H_
