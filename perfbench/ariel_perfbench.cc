// End-to-end benchmark for the Ariel engine.
//
//   ariel_perfbench --workload rule_heavy|join_heavy|server_mix --seed N
//                   --seconds S --trace 0|1 [--smoke] [--trace-dir DIR]
//
// Each run drives one closed-loop workload through the public API in a
// fresh process (Database::Execute* in process, ClientConnection::RoundTrip
// against an ArielServer for server_mix), checks every reply against a model
// the workload generator keeps, audits the A-TREAT network at the end, and
// prints one JSON result line. --trace 0 reports the end-to-end metrics;
// --trace 1 runs the same loop half untraced and half traced and reports the
// per-layer metrics (spans around the benchmark's own calls plus deltas of
// the engine's Metrics() registry). See README.md beside this file.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ariel/database.h"
#include "bench_support.h"
#include "parser/parser.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

extern char** environ;

namespace perfbench {
namespace {

using ariel::CommandResult;
using ariel::Database;
using ariel::DatabaseOptions;
using ariel::Random;
using ariel::Result;
using ariel::Status;
using ariel::Tuple;
using ariel::Value;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string trace_dir = ".bench_build/traces";
};

/// Fatal set-up error: the run cannot measure anything, so it prints no
/// result line and exits non-zero.
[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "ariel_perfbench: %s\n", what.c_str());
  std::exit(2);
}

void MustOk(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

/// Runs one set-up command; set-up must not fail.
CommandResult MustExec(Database* db, const std::string& text) {
  Result<CommandResult> result = db->Execute(text);
  MustOk(result.status(), "set-up command failed: " + text);
  return std::move(result).value();
}

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Commands and their expected outcomes
// ---------------------------------------------------------------------------

/// One generated command with the outcome the generator's model predicts.
struct Op {
  bool write = false;
  std::string text;
  /// Mutations: the affected-tuple count the model predicts (-1: unchecked,
  /// used for log truncation whose size depends on rule firings).
  int64_t expect_affected = -1;
  /// Reads: the single row the model predicts.
  std::vector<Value> expect_row;
};

/// The commands that started within one fixed-length slice of a timed
/// section, and the HostGauge passes run between them. End-to-end figures
/// are medians over slices, so a burst of interference from outside the
/// process moves a few slices, not the result.
struct Slice {
  std::vector<double> read_us;
  std::vector<double> write_us;
  std::vector<double> gauge_us;
  double rows_changed = 0;
  double seconds = 0;

  /// How much slower than the reference the host ran in this slice: the
  /// median gauge pass over HostGauge::kReferenceUs. Dividing a latency by
  /// it (multiplying a rate) gives the figure at the reference speed.
  double HostFactor() const {
    return gauge_us.empty() ? 1.0 : Median(gauge_us) / HostGauge::kReferenceUs;
  }

  double commands() const {
    return static_cast<double>(read_us.size() + write_us.size());
  }

  double MeanUs() const {
    double sum = 0;
    for (double v : read_us) sum += v;
    for (double v : write_us) sum += v;
    return Ratio(sum, commands());
  }
};

/// Everything a closed loop observed.
struct LoopStats {
  std::vector<Slice> slices;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // error Status or error reply
  uint64_t wrong = 0;   // reply disagrees with the model
  double rows_changed = 0;
  double wall_s = 0;
  std::string first_problem;

  void Problem(const std::string& what) {
    if (first_problem.empty()) first_problem = what;
  }

  Slice& At(size_t slice) {
    if (slices.size() <= slice) slices.resize(slice + 1);
    return slices[slice];
  }

  /// Files one finished command under the slice its start fell in.
  void Record(size_t slice, bool write, double latency_us, double rows) {
    (write ? At(slice).write_us : At(slice).read_us).push_back(latency_us);
    slices[slice].rows_changed += rows;
    rows_changed += rows;
    ++attempted;
  }

  /// Sets each slice's length once a loop of `seconds` has ended.
  void CloseSlices(double seconds, double slice_s) {
    for (size_t i = 0; i < slices.size(); ++i) {
      slices[i].seconds =
          std::min(slice_s, seconds - static_cast<double>(i) * slice_s);
    }
  }

  /// Adds another loop's counts; `aligned` merges slice i with slice i
  /// (concurrent clients on one clock), otherwise the slices are appended
  /// (consecutive sections).
  void Merge(const LoopStats& other, bool aligned) {
    if (aligned) {
      if (slices.size() < other.slices.size()) slices.resize(other.slices.size());
      for (size_t i = 0; i < other.slices.size(); ++i) {
        Slice& mine = slices[i];
        const Slice& theirs = other.slices[i];
        mine.read_us.insert(mine.read_us.end(), theirs.read_us.begin(),
                            theirs.read_us.end());
        mine.write_us.insert(mine.write_us.end(), theirs.write_us.begin(),
                             theirs.write_us.end());
        mine.gauge_us.insert(mine.gauge_us.end(), theirs.gauge_us.begin(),
                             theirs.gauge_us.end());
        mine.rows_changed += theirs.rows_changed;
        mine.seconds = std::max(mine.seconds, theirs.seconds);
      }
      wall_s = std::max(wall_s, other.wall_s);
    } else {
      slices.insert(slices.end(), other.slices.begin(), other.slices.end());
      wall_s += other.wall_s;
    }
    attempted += other.attempted;
    failed += other.failed;
    wrong += other.wrong;
    rows_changed += other.rows_changed;
    if (first_problem.empty()) first_problem = other.first_problem;
  }

  /// `f(slice)` for every slice, leaving out slices shorter than half the
  /// longest one (a loop's ragged end) and values `f` marks as empty (NaN).
  template <typename F>
  std::vector<double> PerSlice(F f) const {
    double longest = 0;
    for (const Slice& slice : slices) longest = std::max(longest, slice.seconds);
    std::vector<double> values;
    for (const Slice& slice : slices) {
      if (slice.seconds < longest / 2) continue;
      const double v = f(slice);
      if (!std::isnan(v)) values.push_back(v);
    }
    return values;
  }

  double MedianHostFactor() const {
    return Median(PerSlice([](const Slice& s) { return s.HostFactor(); }));
  }

  /// Median over slices of the mean command latency at the reference host
  /// speed.
  double MedianMeanUs() const {
    return Median(
        PerSlice([](const Slice& s) { return s.MeanUs() / s.HostFactor(); }));
  }
};

/// Runs a HostGauge pass between commands every kEveryNs and files it under
/// the slice it ran in. One per loop thread. The passes take about 1% of
/// the loop's time.
class GaugeTimer {
 public:
  static constexpr int64_t kEveryNs = 20'000'000;

  GaugeTimer(int64_t start, int64_t slice_ns)
      : start_(start), slice_ns_(slice_ns), next_(start) {}

  void MaybeRun(int64_t now, LoopStats* stats) {
    if (now < next_) return;
    const auto slice = static_cast<size_t>((now - start_) / slice_ns_);
    stats->At(slice).gauge_us.push_back(gauge_.PassUs());
    next_ = now + kEveryNs;
  }

 private:
  HostGauge gauge_;
  int64_t start_;
  int64_t slice_ns_;
  int64_t next_;
};

/// Where the benchmark's threads run. With two or more CPUs, the thread
/// that runs the engine (the main thread, and for server_mix the server
/// thread) is pinned to the last CPU the process may use, the host gauge
/// beside it samples that CPU, and the client threads share the others.
class CpuPlan {
 public:
  CpuPlan() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
        CPU_COUNT(&allowed) < 2) {
      return;
    }
    CPU_ZERO(&engine_);
    others_ = allowed;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (CPU_ISSET(cpu, &allowed)) {
        CPU_SET(cpu, &engine_);
        CPU_CLR(cpu, &others_);
        break;
      }
    }
    pinned_ = true;
  }

  void PinToEngineCpu(pthread_t thread) const {
    if (pinned_) pthread_setaffinity_np(thread, sizeof(engine_), &engine_);
  }
  void PinToOtherCpus(pthread_t thread) const {
    if (pinned_) pthread_setaffinity_np(thread, sizeof(others_), &others_);
  }

 private:
  bool pinned_ = false;
  cpu_set_t engine_{};
  cpu_set_t others_{};
};

const CpuPlan& Cpus() {
  static const CpuPlan plan;
  return plan;
}

/// Runs HostGauge passes on a thread of its own, on the engine's CPU, from
/// construction to destruction, filing them into `stats`' slices. The
/// thread sleeps between passes and a pass is timed in its own CPU time, so
/// sharing the CPU neither holds up the engine for long nor inflates a pass.
class BackgroundGauge {
 public:
  BackgroundGauge(int64_t start, int64_t slice_ns, LoopStats* stats)
      : thread_([this, start, slice_ns, stats] {
          Cpus().PinToEngineCpu(pthread_self());
          GaugeTimer gauge(start, slice_ns);
          std::unique_lock<std::mutex> lock(mu_);
          while (!stop_) {
            lock.unlock();
            gauge.MaybeRun(NowNs(), stats);
            lock.lock();
            wake_.wait_for(lock,
                           std::chrono::nanoseconds(GaugeTimer::kEveryNs),
                           [this] { return stop_; });
          }
        }) {}
  ~BackgroundGauge() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_one();
    thread_.join();
  }
  BackgroundGauge(const BackgroundGauge&) = delete;
  BackgroundGauge& operator=(const BackgroundGauge&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread thread_;
};

/// Runs one set-up and returns its time in seconds at the reference host
/// speed, with the host gauge sampling the engine's CPU meanwhile.
template <typename F>
double TimeSetup(F setup) {
  LoopStats gauged;
  const int64_t t0 = NowNs();
  int64_t t1 = 0;
  {
    BackgroundGauge gauge(t0, std::numeric_limits<int64_t>::max(), &gauged);
    setup();
    t1 = NowNs();
  }
  const double seconds = static_cast<double>(t1 - t0) / 1e9;
  return gauged.slices.empty() ? seconds
                               : seconds / gauged.slices[0].HostFactor();
}

/// Checks an in-process result against the model's prediction; returns the
/// tuples the command changed.
double CheckResult(const Op& op, const Result<CommandResult>& result,
                   LoopStats* stats) {
  if (!result.ok()) {
    ++stats->failed;
    stats->Problem(op.text + " -> " + result.status().ToString());
    return 0;
  }
  if (op.expect_affected >= 0 &&
      result->affected != static_cast<size_t>(op.expect_affected)) {
    ++stats->wrong;
    stats->Problem(op.text + " affected " + std::to_string(result->affected) +
                   ", model says " + std::to_string(op.expect_affected));
  }
  if (!op.expect_row.empty()) {
    const bool one_row = result->rows.has_value() && result->rows->num_rows() == 1;
    if (!one_row || result->rows->rows[0].values() != op.expect_row) {
      ++stats->wrong;
      stats->Problem(op.text + " returned a row the model does not hold");
    }
  }
  return op.write ? static_cast<double>(result->affected) : 0.0;
}

// ---------------------------------------------------------------------------
// In-process workloads
// ---------------------------------------------------------------------------

/// A seeded command stream plus the model of the data it keeps in step.
class Stream {
 public:
  virtual ~Stream() = default;
  virtual Op Next() = 0;
  /// Compares the whole modelled relation with the engine's copy.
  virtual bool CheckEndState(Database* db, std::string* why) const = 0;
};

/// One built database, ready for its first timed command.
struct Instance {
  std::unique_ptr<Database> db;
  std::unique_ptr<Stream> stream;
  std::vector<double> install_us;   // per rule: define rule via Execute
  std::vector<double> activate_us;  // per rule: RuleManager::ActivateRule
};

/// Rule set-up with install and activate timed apart (§6): the engine runs
/// with auto_activate_rules=false, everything else at its defaults.
DatabaseOptions SetupOptions() {
  DatabaseOptions options;
  options.auto_activate_rules = false;
  return options;
}

/// Installs every rule (define rule via Execute), then activates each
/// (RuleManager::ActivateRule), recording per-rule durations in µs.
void InstallRules(Database* db, const std::vector<std::string>& names,
                  const std::vector<std::string>& texts, Tracer* tracer,
                  std::vector<double>* install_us,
                  std::vector<double>* activate_us) {
  for (const std::string& text : texts) {
    ScopedSpan span(tracer, "rules.install", -1, 0);
    const int64_t t0 = NowNs();
    MustExec(db, text);
    install_us->push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  for (const std::string& name : names) {
    ScopedSpan span(tracer, "rules.activate", -1, 0);
    const int64_t t0 = NowNs();
    MustOk(db->rules().ActivateRule(name), "activate " + name);
    activate_us->push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
}

/// Appends rows through Execute in scripts of `chunk` commands: one
/// transition per command, or with `block` one do…end transition per chunk.
void LoadRows(Database* db, const std::vector<std::string>& appends,
              size_t chunk, bool block = false) {
  for (size_t i = 0; i < appends.size(); i += chunk) {
    std::string script = block ? "do\n" : "";
    for (size_t j = i; j < std::min(appends.size(), i + chunk); ++j) {
      script += appends[j];
      script += '\n';
    }
    if (block) script += "end\n";
    MustOk(db->ExecuteAll(script).status(), "load rows");
  }
}

// --- rule_heavy ------------------------------------------------------------
//
// The §6 schema (emp, dept 7, job 5) with many narrow salary-band rules, one
// third each of the paper's types 1-3. Band j covers (lo_j, lo_j + 20] with
// lo_j = 10000 + 1000 j, and salaries are uniform over all band slots, so
// about 2% of the writes land in a band and fire a logging action.

struct RuleHeavySize {
  int emp_rows;
  int rules;
};

struct EmpRow {
  std::string name;
  int64_t age = 0;
  int64_t sal = 0;
  int64_t dno = 0;
  int64_t jno = 0;
};

class RuleHeavyStream : public Stream {
 public:
  RuleHeavyStream(uint64_t seed, const RuleHeavySize& size)
      : rng_(seed), size_(size) {}

  /// Rows of the initial load, generated (and modelled) before any command.
  std::vector<std::string> InitialAppends() {
    std::vector<std::string> out;
    for (int i = 0; i < size_.emp_rows; ++i) out.push_back(AppendText(NewRow()));
    return out;
  }

  Op Next() override {
    ++count_;
    if (count_ % 500 == 0) return Op{true, "delete bench_log", -1, {}};
    const double r = rng_.NextDouble();
    if (r < 0.5) {
      const int64_t id = PickLive();
      EmpRow& row = rows_[id];
      row.sal = RandomSal();
      return Op{true,
                "replace emp (sal = " + std::to_string(row.sal) +
                    ".0) where emp.id = " + std::to_string(id),
                1,
                {}};
    }
    if (r < 0.8) {
      const int64_t id = PickLive();
      const EmpRow& row = rows_[id];
      return Op{false,
                "retrieve (emp.name, emp.age, emp.sal, emp.dno, emp.jno) "
                "where emp.id = " +
                    std::to_string(id),
                -1,
                {Value::String(row.name), Value::Int(row.age),
                 Value::Float(static_cast<double>(row.sal)),
                 Value::Int(row.dno), Value::Int(row.jno)}};
    }
    // Appends and deletes alternate, so emp holds emp_rows or one more.
    if (static_cast<int>(live_.size()) <= size_.emp_rows) {
      return Op{true, AppendText(NewRow()), 1, {}};
    }
    const size_t slot = rng_.Uniform(live_.size());
    const int64_t id = live_[slot];
    live_[slot] = live_.back();
    live_.pop_back();
    rows_.erase(id);
    return Op{true, "delete emp where emp.id = " + std::to_string(id), 1, {}};
  }

  bool CheckEndState(Database* db, std::string* why) const override {
    const ariel::HeapRelation* emp = db->catalog().GetRelation("emp");
    if (emp == nullptr || emp->size() != rows_.size()) {
      *why = "emp row count differs from the model";
      return false;
    }
    for (ariel::TupleId tid : emp->AllTupleIds()) {
      const Tuple* t = emp->Get(tid);
      auto it = rows_.find(t->at(0).int_value());
      if (it == rows_.end() || t->at(1) != Value::String(it->second.name) ||
          t->at(2) != Value::Int(it->second.age) ||
          t->at(3) != Value::Float(static_cast<double>(it->second.sal)) ||
          t->at(4) != Value::Int(it->second.dno) ||
          t->at(5) != Value::Int(it->second.jno)) {
        *why = "emp tuple " + t->ToString() + " differs from the model";
        return false;
      }
    }
    return true;
  }

 private:
  int64_t RandomSal() {
    return 10000 + static_cast<int64_t>(
                       rng_.Uniform(static_cast<uint64_t>(size_.rules) * 1000));
  }

  int64_t NewRow() {
    const int64_t id = next_id_++;
    EmpRow row;
    row.name = "e" + std::to_string(id);
    row.age = 20 + static_cast<int64_t>(rng_.Uniform(45));
    row.sal = RandomSal();
    row.dno = 1 + static_cast<int64_t>(rng_.Uniform(7));
    row.jno = 1 + static_cast<int64_t>(rng_.Uniform(5));
    rows_[id] = row;
    live_.push_back(id);
    return id;
  }

  std::string AppendText(int64_t id) const {
    const EmpRow& row = rows_.at(id);
    return "append emp (id = " + std::to_string(id) + ", name = \"" +
           row.name + "\", age = " + std::to_string(row.age) +
           ", sal = " + std::to_string(row.sal) + ".0, dno = " +
           std::to_string(row.dno) + ", jno = " + std::to_string(row.jno) +
           ")";
  }

  int64_t PickLive() { return live_[rng_.Uniform(live_.size())]; }

  Random rng_;
  RuleHeavySize size_;
  std::unordered_map<int64_t, EmpRow> rows_;
  std::vector<int64_t> live_;
  int64_t next_id_ = 1;
  uint64_t count_ = 0;
};

Instance SetupRuleHeavy(uint64_t seed, bool smoke, Tracer* tracer) {
  const RuleHeavySize size = smoke ? RuleHeavySize{200, 99}
                                   : RuleHeavySize{1000, 1000};
  Instance inst;
  inst.db = std::make_unique<Database>(SetupOptions());
  auto stream = std::make_unique<RuleHeavyStream>(seed, size);
  Database* db = inst.db.get();
  MustExec(db, "create emp (id = int, name = string, age = int, sal = float, "
               "dno = int, jno = int)");
  MustExec(db, "create dept (dno = int, name = string, building = string)");
  MustExec(db, "create job (jno = int, title = string, paygrade = int, "
               "description = string)");
  MustExec(db, "create bench_log (name = string)");
  MustExec(db, "define index on emp (id)");
  static const char* kDeptNames[] = {"Sales", "Toy",  "Shoe", "Candy",
                                     "Book",  "Auto", "Garden"};
  for (int d = 0; d < 7; ++d) {
    MustExec(db, "append dept (dno = " + std::to_string(d + 1) + ", name = \"" +
                     kDeptNames[d] + "\", building = \"B" +
                     std::to_string(d % 3 + 1) + "\")");
  }
  static const char* kTitles[] = {"Clerk", "Engineer", "Manager", "Director",
                                  "Analyst"};
  for (int j = 0; j < 5; ++j) {
    MustExec(db, "append job (jno = " + std::to_string(j + 1) +
                     ", title = \"" + kTitles[j] + "\", paygrade = " +
                     std::to_string(2 * j + 1) + ", description = \"desc\")");
  }
  LoadRows(db, stream->InitialAppends(), 250);
  std::vector<std::string> names, texts;
  for (int j = 0; j < size.rules; ++j) {
    const int type = j % 3 + 1;
    const int64_t lo = 10000 + static_cast<int64_t>(j) * 1000;
    std::string cond = std::to_string(lo) + " < emp.sal and emp.sal <= " +
                       std::to_string(lo + 20);
    if (type >= 2) cond += " and emp.dno = dept.dno";
    if (type >= 3) cond += " and emp.jno = job.jno";
    names.push_back("band_" + std::to_string(j));
    texts.push_back("define rule " + names.back() + " if " + cond +
                    " then append to bench_log (name = emp.name)");
  }
  InstallRules(inst.db.get(), names, texts, tracer, &inst.install_us,
               &inst.activate_us);
  inst.stream = std::move(stream);
  return inst;
}

// --- join_heavy ------------------------------------------------------------
//
// The eight rules of bench/bulk_transitions over emp × dept[128]: two hash
// equijoins, four band joins, two hash joins with residuals. Set-oriented
// replaces touch ~400 rows each; single-row appends and deletes alternate so
// emp stays at its size; point reads go through the emp.id index.

constexpr int64_t kJoinSalDomain = 12800;

struct JoinHeavySize {
  int emp_rows;
  int dept_rows;
};

class JoinHeavyStream : public Stream {
 public:
  JoinHeavyStream(uint64_t seed, const JoinHeavySize& size)
      : rng_(seed), size_(size), by_dno_(static_cast<size_t>(size.dept_rows)) {}

  std::vector<std::string> InitialAppends() {
    std::vector<std::string> out;
    for (int i = 0; i < size_.emp_rows; ++i) out.push_back(AppendText(NewRow()));
    return out;
  }

  Op Next() override {
    ++count_;
    if (count_ % 64 == 0) return Op{true, "delete sink", -1, {}};
    // A cycle of 27: two set-oriented replaces, one single-row append or
    // delete, 24 point reads. The reads take about 1% of the cycle's time
    // next to the replaces, so they give read_p50_us enough samples per
    // slice without moving the write-dominated throughput.
    switch (count_ % 27) {
      case 1:
      case 14: {  // set-oriented replace over one department's lower half
        const int64_t dno = static_cast<int64_t>(
            rng_.Uniform(static_cast<uint64_t>(size_.dept_rows)));
        const int64_t delta = (++replaces_ % 2 == 0) ? 13 : -13;
        int64_t affected = 0;
        for (int64_t id : by_dno_[static_cast<size_t>(dno)]) {
          int64_t& sal = rows_[id].sal;
          if (sal < kJoinSalDomain / 2) {
            sal += delta;
            ++affected;
          }
        }
        return Op{true,
                  "replace emp (sal = emp.sal + " + std::to_string(delta) +
                      ") where emp.dno = " + std::to_string(dno) +
                      " and emp.sal < " + std::to_string(kJoinSalDomain / 2),
                  affected,
                  {}};
      }
      case 26: {  // one append or one delete, alternating
        if (static_cast<int>(rows_.size()) <= size_.emp_rows) {
          return Op{true, AppendText(NewRow()), 1, {}};
        }
        const size_t slot = rng_.Uniform(live_.size());
        const int64_t id = live_[slot];
        RemoveRow(slot);
        return Op{true, "delete emp where emp.id = " + std::to_string(id), 1,
                  {}};
      }
      default: {  // point read through the index
        const int64_t id = live_[rng_.Uniform(live_.size())];
        const Row& row = rows_[id];
        return Op{false,
                  "retrieve (emp.sal, emp.dno) where emp.id = " +
                      std::to_string(id),
                  -1,
                  {Value::Int(row.sal), Value::Int(row.dno)}};
      }
    }
  }

  bool CheckEndState(Database* db, std::string* why) const override {
    const ariel::HeapRelation* emp = db->catalog().GetRelation("emp");
    if (emp == nullptr || emp->size() != rows_.size()) {
      *why = "emp row count differs from the model";
      return false;
    }
    for (ariel::TupleId tid : emp->AllTupleIds()) {
      const Tuple* t = emp->Get(tid);
      auto it = rows_.find(t->at(0).int_value());
      if (it == rows_.end() || t->at(1) != Value::Int(it->second.sal) ||
          t->at(2) != Value::Int(it->second.dno)) {
        *why = "emp tuple " + t->ToString() + " differs from the model";
        return false;
      }
    }
    return true;
  }

 private:
  struct Row {
    int64_t sal = 0;
    int64_t dno = 0;
    size_t live_slot = 0;
    size_t dno_slot = 0;
  };

  int64_t NewRow() {
    const int64_t id = next_id_++;
    Row row;
    row.sal = static_cast<int64_t>(rng_.Uniform(kJoinSalDomain));
    row.dno = static_cast<int64_t>(
        rng_.Uniform(static_cast<uint64_t>(size_.dept_rows)));
    row.live_slot = live_.size();
    live_.push_back(id);
    std::vector<int64_t>& bucket = by_dno_[static_cast<size_t>(row.dno)];
    row.dno_slot = bucket.size();
    bucket.push_back(id);
    rows_[id] = row;
    return id;
  }

  void RemoveRow(size_t live_slot) {
    const int64_t id = live_[live_slot];
    const Row row = rows_[id];
    live_[live_slot] = live_.back();
    rows_[live_[live_slot]].live_slot = live_slot;
    live_.pop_back();
    std::vector<int64_t>& bucket = by_dno_[static_cast<size_t>(row.dno)];
    bucket[row.dno_slot] = bucket.back();
    rows_[bucket[row.dno_slot]].dno_slot = row.dno_slot;
    bucket.pop_back();
    rows_.erase(id);
  }

  std::string AppendText(int64_t id) {
    const Row& row = rows_[id];
    return "append emp (id = " + std::to_string(id) + ", sal = " +
           std::to_string(row.sal) + ", dno = " + std::to_string(row.dno) +
           ")";
  }

  Random rng_;
  JoinHeavySize size_;
  std::unordered_map<int64_t, Row> rows_;
  std::vector<int64_t> live_;
  std::vector<std::vector<int64_t>> by_dno_;
  int64_t next_id_ = 1;
  uint64_t count_ = 0;
  uint64_t replaces_ = 0;
};

Instance SetupJoinHeavy(uint64_t seed, bool smoke, Tracer* tracer) {
  const JoinHeavySize size = smoke ? JoinHeavySize{5000, 16}
                                   : JoinHeavySize{100000, 128};
  Instance inst;
  inst.db = std::make_unique<Database>(SetupOptions());
  auto stream = std::make_unique<JoinHeavyStream>(seed, size);
  Database* db = inst.db.get();
  MustExec(db, "create emp (id = int, sal = int, dno = int)");
  MustExec(db, "create dept (dno = int, lo = int, hi = int, budget = int)");
  MustExec(db, "create sink (x = int)");
  MustExec(db, "define index on emp (id)");
  std::vector<std::string> depts;
  for (int d = 0; d < size.dept_rows; ++d) {
    depts.push_back("append dept (dno = " + std::to_string(d) + ", lo = " +
                    std::to_string(d * 100) + ", hi = " +
                    std::to_string(d * 100 + 25) + ", budget = " +
                    std::to_string((d * 37) % kJoinSalDomain) + ")");
  }
  LoadRows(db, depts, 128);
  const std::vector<std::string> conds = {
      "emp.dno = dept.dno",
      "emp.dno = dept.dno and emp.sal >= 0",
      "emp.sal >= dept.lo and emp.sal < dept.hi",
      "emp.sal + 10 >= dept.lo and emp.sal + 10 < dept.hi",
      "emp.sal + 25 >= dept.lo and emp.sal + 25 < dept.hi",
      "emp.sal + 40 >= dept.lo and emp.sal + 40 < dept.hi",
      "emp.dno = dept.dno and emp.sal > dept.budget",
      "emp.dno = dept.dno and emp.sal < dept.budget + 100",
  };
  std::vector<std::string> names, texts;
  for (size_t i = 0; i < conds.size(); ++i) {
    names.push_back("r" + std::to_string(i));
    texts.push_back("define rule " + names.back() + " if " + conds[i] +
                    " then append to sink (x = 1)");
  }
  // Rules first, then emp: activating over an already-loaded emp lets the
  // adaptive α policy make emp's memories virtual (and takes ~5 s per band
  // rule); loading afterwards keeps them stored, the TREAT regime this
  // workload is meant to exercise.
  InstallRules(inst.db.get(), names, texts, tracer, &inst.install_us,
               &inst.activate_us);
  LoadRows(db, stream->InitialAppends(), 5000, /*block=*/true);
  inst.stream = std::move(stream);
  return inst;
}

// ---------------------------------------------------------------------------
// End-state probes (traced runs only)
// ---------------------------------------------------------------------------

struct Probes {
  double token_probe_us = 0;
  double savepoint_us = 0;
  double cycle_idle_us = 0;
};

/// Times the §6 token test, a savepoint pair and an idle recognize-act
/// cycle at quiescence, each `reps` times, and keeps the medians. The token
/// test inserts then deletes a probe tuple in its own transition, so it
/// leaves no trace in the database.
Probes RunProbes(Database* db, const std::string& relation,
                 const std::function<Tuple(Random*)>& probe_tuple,
                 Random* rng, Tracer* tracer, int reps, LoopStats* stats) {
  ariel::HeapRelation* rel = db->catalog().GetRelation(relation);
  std::vector<double> token, savepoint, cycle;
  for (int i = 0; i < reps; ++i) {
    Tuple tuple = probe_tuple(rng);
    int64_t t0 = NowNs();
    {
      ScopedSpan span(tracer, "network.token_probe", -1, 0);
      db->transitions().BeginTransition();
      Result<ariel::TupleId> tid = db->transitions().Insert(rel, std::move(tuple));
      Status status = tid.status();
      if (tid.ok()) status = db->transitions().Delete(rel, *tid);
      Status end = db->transitions().EndTransition();
      if (!status.ok() || !end.ok()) {
        ++stats->wrong;
        stats->Problem("token probe failed: " +
                       (status.ok() ? end : status).ToString());
      }
    }
    token.push_back(static_cast<double>(NowNs() - t0) / 1e3);

    t0 = NowNs();
    {
      ScopedSpan span(tracer, "txn.savepoint", -1, 0);
      Status begin = db->txn().BeginCommand();
      Status commit = begin.ok() ? db->txn().CommitCommand() : begin;
      if (!commit.ok()) {
        ++stats->wrong;
        stats->Problem("savepoint probe failed: " + commit.ToString());
      }
    }
    savepoint.push_back(static_cast<double>(NowNs() - t0) / 1e3);

    t0 = NowNs();
    {
      ScopedSpan span(tracer, "rules.cycle_idle", -1, 0);
      Status cycle_status = db->monitor().RunCycle();
      if (!cycle_status.ok()) {
        ++stats->wrong;
        stats->Problem("idle cycle failed: " + cycle_status.ToString());
      }
    }
    cycle.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return Probes{Median(token), Median(savepoint), Median(cycle)};
}

/// Parse and plan spans over a sample of the workload's command texts,
/// against the end state (server_mix, whose commands are parsed inside the
/// server process where the benchmark cannot wrap them).
void ProbeParseAndPlan(Database* db, const std::vector<std::string>& texts,
                       Tracer* tracer) {
  for (size_t i = 0; i < texts.size(); ++i) {
    Result<ariel::CommandPtr> parsed = [&] {
      ScopedSpan span(tracer, "parser.parse", -1, i);
      return ariel::ParseCommand(texts[i]);
    }();
    if (!parsed.ok()) continue;
    ScopedSpan span(tracer, "exec.plan", -1, i);
    ARIEL_IGNORE_STATUS(db->executor().PlanFor(**parsed).status());
  }
}

// ---------------------------------------------------------------------------
// Per-layer report
// ---------------------------------------------------------------------------

struct LayerInputs {
  EngineCounters delta;  // over the traced section
  double commands = 0;
  double rows_changed = 0;
  double wall_s = 0;
  std::unordered_map<std::string, SelfTime> self;
  Probes probes;
  double install_us = 0;
  double activate_us = 0;
  double untraced_mean_us = 0;
  double traced_mean_us = 0;
  double round_trip_mean_us = 0;  // server_mix only
  double host_factor = 1;         // median over the traced half's slices
};

std::vector<MetricValue> PerLayerMetrics(const LayerInputs& in) {
  const EngineCounters& d = in.delta;
  const double tokens = d[kTokensEmitted];
  auto self_us = [&](const char* name) {
    auto it = in.self.find(name);
    return it == in.self.end() ? 0.0 : it->second.MeanUs();
  };
  const double server_command_us =
      Ratio(d[kServerCommandNs], d[kServerCommandCount]) / 1e3;
  // Self time of the engine's execute span that neither token propagation
  // nor rule firing accounts for: exec, txn and storage work.
  const double execute_us = self_us("engine.execute");
  const double other_us =
      execute_us == 0
          ? 0.0
          : execute_us - Ratio(d[kTokenProcessNs] + d[kRuleFiringNs],
                               in.commands) / 1e3;
  std::vector<MetricValue> out = {
      {"parser.parse_us", self_us("parser.parse"), "us"},
      {"exec.plan_us", self_us("exec.plan"), "us"},
      {"exec.tuples_scanned_per_cmd", Ratio(d[kTuplesScanned], in.commands),
       "count"},
      {"exec.plans_built_per_cmd", Ratio(d[kPlansBuilt], in.commands),
       "count"},
      {"exec.values_copied_per_row", Ratio(d[kValuesCopied], in.rows_changed),
       "count"},
      {"network.token_us",
       Ratio(d[kTokenProcessNs], d[kTokenProcessCount]) / 1e3, "us"},
      {"network.busy_share", Ratio(d[kTokenProcessNs] / 1e9, in.wall_s),
       "ratio"},
      {"network.tokens_per_cmd", Ratio(tokens, in.commands), "count"},
      {"network.isl_visits_per_token", Ratio(d[kIslNodeVisits], tokens),
       "count"},
      {"network.predicate_evals_per_token",
       Ratio(d[kSelectionPredicateEvals], tokens), "count"},
      {"network.selection_yield",
       Ratio(d[kSelectionMatches], d[kSelectionPredicateEvals]), "ratio"},
      {"network.join_probes_per_token", Ratio(d[kJoinProbes], tokens),
       "count"},
      {"network.join_scan_fallbacks_per_token",
       Ratio(d[kJoinScanFallbacks], tokens), "count"},
      {"network.join_prefiltered_per_token",
       Ratio(d[kColumnarJoinPrefiltered], tokens), "count"},
      {"network.join_yield", Ratio(d[kPnodeBindingsCreated], d[kJoinProbes]),
       "ratio"},
      {"network.alpha_removals_per_token", Ratio(d[kAlphaRemovals], tokens),
       "count"},
      {"network.pnode_created_per_token",
       Ratio(d[kPnodeBindingsCreated], tokens), "count"},
      {"network.token_probe_us", in.probes.token_probe_us, "us"},
      {"rules.firings_per_cmd", Ratio(d[kRulesFired], in.commands), "count"},
      {"rules.firing_us", Ratio(d[kRuleFiringNs], d[kRuleFiringCount]) / 1e3,
       "us"},
      {"rules.cycle_idle_us", in.probes.cycle_idle_us, "us"},
      {"rules.install_us", in.install_us, "us"},
      {"rules.activate_us", in.activate_us, "us"},
      {"txn.savepoint_us", in.probes.savepoint_us, "us"},
      {"txn.undo_records_per_cmd", Ratio(d[kTxnUndoRecords], in.commands),
       "count"},
      {"txn.rollbacks", d[kTxnRollbacks], "count"},
      {"storage.batches_built_per_cmd",
       Ratio(d[kColumnarBatchesBuilt], in.commands), "count"},
      {"storage.batch_invalidations_per_cmd",
       Ratio(d[kColumnarBatchInvalidations], in.commands), "count"},
      {"server.command_us", server_command_us, "us"},
      {"server.overhead_us",
       in.round_trip_mean_us == 0 ? 0.0
                                  : in.round_trip_mean_us - server_command_us,
       "us"},
      {"server.bytes_per_cmd", Ratio(d[kServerBytes], in.commands), "bytes"},
      {"server.backpressure_stalls", d[kServerBackpressureStalls], "count"},
      {"engine.other_us", other_us, "us"},
      {"trace.overhead_ratio", Ratio(in.traced_mean_us, in.untraced_mean_us),
       "ratio"},
      {"trace.commands", in.commands, "count"},
      {"trace.tokens", tokens, "count"},
      {"trace.rows_changed", in.rows_changed, "count"},
  };
  // Times at the reference host speed, as the end-to-end latencies are.
  for (MetricValue& m : out) {
    if (m.unit == "us") m.value /= in.host_factor;
  }
  out.push_back({"trace.host_factor", in.host_factor, "ratio"});
  return out;
}

/// End-to-end figures: medians over the slices of the timed section, with
/// each slice's latencies and rates taken at the reference host speed. The
/// per-slice values and host factors are printed too, so the spread within a
/// run shows.
std::vector<MetricValue> EndToEndMetrics(const LoopStats& s, double setup_s,
                                         double peak_rss_mb) {
  constexpr double kEmpty = std::numeric_limits<double>::quiet_NaN();
  std::vector<MetricValue> out = {{"setup_s", setup_s, "s"}};
  auto add = [&](const char* name, const char* unit, auto per_slice) {
    const std::vector<double> values = s.PerSlice(per_slice);
    std::printf("slices %s:", name);
    for (double v : values) std::printf(" %.4g", v);
    std::printf("\n");
    out.push_back({name, Median(values), unit});
  };
  auto latency = [&](bool write, double q) {
    return [write, q, kEmpty](const Slice& slice) {
      const std::vector<double>& v = write ? slice.write_us : slice.read_us;
      return v.empty() ? kEmpty : Quantile(v, q) / slice.HostFactor();
    };
  };
  std::printf("slices host_factor:");
  for (double v : s.PerSlice([](const Slice& x) { return x.HostFactor(); })) {
    std::printf(" %.3f", v);
  }
  std::printf("\n");
  add("cmd_per_s", "1/s", [](const Slice& x) {
    return Ratio(x.commands(), x.seconds) * x.HostFactor();
  });
  add("write_p50_us", "us", latency(true, 0.50));
  add("write_p90_us", "us", latency(true, 0.90));
  add("read_p50_us", "us", latency(false, 0.50));
  add("rows_per_s", "1/s", [](const Slice& x) {
    return Ratio(x.rows_changed, x.seconds) * x.HostFactor();
  });
  out.push_back({"peak_rss_mb", peak_rss_mb, "MiB"});
  return out;
}

// ---------------------------------------------------------------------------
// Run driver shared by the workloads
// ---------------------------------------------------------------------------

/// What one run measured and checked; printed by Finish.
struct RunOutcome {
  LoopStats stats;  // every timed command (both halves when traced)
  std::vector<double> setup_s;
  std::vector<uint64_t> digests;  // one per set-up repetition
  // Taken after the first set-up and warm-up, before the timed section: the
  // timed loop keeps every latency sample (8 bytes a command), which would
  // otherwise count, and grow with the program's speed.
  double peak_rss_mb = 0;
  bool audit_clean = true;
  bool end_state_ok = true;
  std::string end_state_why;
  LayerInputs layers;
};

void PrintEffectiveOptions(const Database& db) {
  const DatabaseOptions& o = db.options();
  std::printf(
      "options: auto_activate_rules=%d (set-up only; run-time behaviour is "
      "the default) batch_tokens=%zu match_threads=%zu read_threads=%zu "
      "columnar_exec=%d adaptive_optimize=%d cache_action_plans=%d "
      "join_hash_indexes=%d join_backend=%s on_action_error=%s "
      "failpoint_at=%zu max_rule_firings_per_cycle=%zu\n",
      o.auto_activate_rules ? 1 : 0, o.batch_tokens, o.match_threads,
      o.read_threads, o.columnar_exec ? 1 : 0, o.adaptive_optimize ? 1 : 0,
      o.cache_action_plans ? 1 : 0, o.join_hash_indexes ? 1 : 0,
      o.join_backend == ariel::JoinBackend::kTreat ? "treat" : "rete",
      ariel::ActionErrorPolicyToString(o.on_action_error), o.failpoint_at,
      o.max_rule_firings_per_cycle);
}

int Finish(const Args& args, RunOutcome* out) {
  const LoopStats& s = out->stats;
  bool digests_agree = true;
  for (uint64_t d : out->digests) digests_agree &= d == out->digests.front();
  const bool correct = s.wrong == 0 && out->audit_clean && out->end_state_ok &&
                       digests_agree && out->layers.delta[kTxnRollbacks] == 0;
  std::printf("digest: %016llx\n",
              static_cast<unsigned long long>(out->digests.front()));
  size_t reads = 0;
  for (const Slice& slice : s.slices) reads += slice.read_us.size();
  std::printf("commands: %llu (reads %zu, writes %llu) in %zu slices, failed "
              "%llu, wrong %llu, fail_ratio %.6f\n",
              static_cast<unsigned long long>(s.attempted), reads,
              static_cast<unsigned long long>(s.attempted - reads),
              s.slices.size(), static_cast<unsigned long long>(s.failed),
              static_cast<unsigned long long>(s.wrong),
              Ratio(static_cast<double>(s.failed),
                    static_cast<double>(s.attempted)));
  std::printf("setup_s per repetition (reference host speed):");
  for (double t : out->setup_s) std::printf(" %.4f", t);
  std::printf("\n");
  if (!digests_agree) std::printf("problem: set-up repetitions disagree\n");
  if (!out->audit_clean) std::printf("problem: network audit failed\n");
  if (!out->end_state_ok) {
    std::printf("problem: %s\n", out->end_state_why.c_str());
  }
  if (!s.first_problem.empty()) {
    std::printf("problem: %s\n", s.first_problem.c_str());
  }
  if (out->layers.delta[kTxnRollbacks] != 0) {
    std::printf("problem: %g rollbacks in the timed section\n",
                out->layers.delta[kTxnRollbacks]);
  }
  std::vector<MetricValue> metrics;
  if (args.trace) {
    metrics = PerLayerMetrics(out->layers);
  } else {
    metrics = EndToEndMetrics(s, Median(out->setup_s),
                              out->peak_rss_mb);
  }
  PrintResultLine(correct, s.attempted, s.failed, metrics);
  return 0;
}

/// Audits the network and records any violation.
void Audit(Database* db, RunOutcome* out) {
  Result<std::vector<ariel::AuditViolation>> violations = db->AuditNetwork();
  if (!violations.ok()) {
    out->audit_clean = false;
    std::printf("audit error: %s\n", violations.status().ToString().c_str());
    return;
  }
  for (const ariel::AuditViolation& v : *violations) {
    out->audit_clean = false;
    std::printf("audit violation: %s\n", v.ToString().c_str());
  }
}

void WriteTrace(const Args& args, const Tracer& tracer) {
  if (!tracer.enabled()) return;
  // One file per workload, replaced by each traced run: a 40-s run writes
  // about 100 MB of spans.
  const std::string path =
      args.trace_dir + "/" + args.workload + ".spans.jsonl";
  if (!tracer.WriteJsonLines(path)) {
    std::fprintf(stderr, "ariel_perfbench: cannot write %s\n", path.c_str());
  } else {
    std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                path.c_str());
  }
}

// --- in-process closed loop -------------------------------------------------

/// Runs commands back to back until `seconds` have passed. Untraced, each
/// command is one Database::Execute call; traced, it is ParseCommand then
/// ExecuteCommand, each inside its own span under a per-command root, with
/// an Executor::PlanFor probe (its own root span, outside the command's
/// latency) on the parsed command first.
LoopStats RunInProcessLoop(Database* db, Stream* stream, double seconds,
                           double slice_s, Tracer* tracer,
                           uint64_t* command_id) {
  LoopStats stats;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  const auto slice_ns = static_cast<int64_t>(slice_s * 1e9);
  GaugeTimer gauge(start, slice_ns);
  for (int64_t now = start; now < deadline; now = NowNs()) {
    gauge.MaybeRun(now, &stats);
    const Op op = stream->Next();
    const uint64_t id = ++*command_id;
    Result<CommandResult> result = Status::Internal("not executed");
    int64_t t0 = 0;
    if (!tracer->enabled()) {
      t0 = NowNs();
      result = db->Execute(op.text);
    } else {
      // Parsed once outside the command for the plan probe, so the probe
      // plans exactly the command the engine will execute.
      Result<ariel::CommandPtr> parsed = ariel::ParseCommand(op.text);
      if (parsed.ok()) {
        ScopedSpan span(tracer, "exec.plan", -1, id);
        ARIEL_IGNORE_STATUS(db->executor().PlanFor(**parsed).status());
      }
      t0 = NowNs();
      ScopedSpan root(tracer, "command", -1, id);
      {
        ScopedSpan span(tracer, "parser.parse", root.id(), id);
        parsed = ariel::ParseCommand(op.text);
      }
      if (parsed.ok()) {
        ScopedSpan span(tracer, "engine.execute", root.id(), id);
        result = db->ExecuteCommand(**parsed);
      } else {
        result = parsed.status();
      }
    }
    const double latency_us = static_cast<double>(NowNs() - t0) / 1e3;
    const double rows = CheckResult(op, result, &stats);
    stats.Record(static_cast<size_t>((t0 - start) / slice_ns), op.write,
                 latency_us, rows);
  }
  stats.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  stats.CloseSlices(seconds, slice_s);
  return stats;
}

using SetupFn = Instance (*)(uint64_t seed, bool smoke, Tracer* tracer);

struct InProcessWorkload {
  SetupFn setup;
  int setup_reps;
  int warmup_ops;
  double slice_s;
  const char* probe_relation;
  std::function<Tuple(Random*)> probe_tuple;
};

/// Builds one instance from the seed (timed into out->setup_s), runs the
/// untimed warm-up prefix and records the DebugDumpState digest.
Instance BuildInstance(const Args& args, const InProcessWorkload& w,
                       Tracer* tracer, RunOutcome* out) {
  // The firing trace is process-wide and part of DebugDumpState; each
  // repetition starts it empty, as a fresh process would.
  ariel::Metrics().firing_trace.Clear();
  Instance inst;
  out->setup_s.push_back(
      TimeSetup([&] { inst = w.setup(args.seed, args.smoke, tracer); }));
  LoopStats warm;
  for (int i = 0; i < w.warmup_ops; ++i) {
    const Op op = inst.stream->Next();
    CheckResult(op, inst.db->Execute(op.text), &warm);
  }
  if (warm.failed != 0 || warm.wrong != 0) {
    Die("warm-up prefix failed: " + warm.first_problem);
  }
  out->digests.push_back(Digest(inst.db->DebugDumpState()));
  return inst;
}

/// The first instance runs the timed section in a process that has built
/// nothing else yet. Afterwards the set-up is repeated `setup_reps - 1` more
/// times from the same seed, each with the same warm-up prefix: set-up time
/// is their median, and every repetition must reach the same digest.
int RunInProcess(const Args& args, const InProcessWorkload& w) {
  RunOutcome out;
  Tracer tracer(args.trace);
  Tracer off(false);
  Instance inst = BuildInstance(args, w, &tracer, &out);
  out.peak_rss_mb = PeakRssMiB();
  Database* db = inst.db.get();
  PrintEffectiveOptions(*db);

  uint64_t command_id = 0;
  const EngineCounters before = EngineCounters::Read();
  if (!args.trace) {
    out.stats = RunInProcessLoop(db, inst.stream.get(), args.seconds,
                                 w.slice_s, &off, &command_id);
    out.layers.delta = EngineCounters::Read().Minus(before);
  } else {
    // First half untraced (the baseline for the tracing overhead), second
    // half traced; counters cover the traced half only.
    LoopStats untraced = RunInProcessLoop(db, inst.stream.get(),
                                          args.seconds / 2, w.slice_s, &off,
                                          &command_id);
    const EngineCounters mid = EngineCounters::Read();
    LoopStats traced = RunInProcessLoop(db, inst.stream.get(),
                                        args.seconds / 2, w.slice_s, &tracer,
                                        &command_id);
    out.layers.delta = EngineCounters::Read().Minus(mid);
    out.layers.commands = static_cast<double>(traced.attempted);
    out.layers.rows_changed = traced.rows_changed;
    out.layers.wall_s = traced.wall_s;
    out.layers.untraced_mean_us = untraced.MedianMeanUs();
    out.layers.traced_mean_us = traced.MedianMeanUs();
    out.layers.host_factor = traced.MedianHostFactor();
    out.stats = std::move(untraced);
    out.stats.Merge(traced, /*aligned=*/false);
  }

  Audit(db, &out);
  out.end_state_ok = inst.stream->CheckEndState(db, &out.end_state_why);
  if (args.trace) {
    Random rng(MixSeed(args.seed, 7));
    out.layers.probes = RunProbes(db, w.probe_relation, w.probe_tuple, &rng,
                                  &tracer, args.smoke ? 50 : 400, &out.stats);
    out.layers.self = tracer.SelfTimes();
    out.layers.install_us = Median(inst.install_us);
    out.layers.activate_us = Median(inst.activate_us);
    // The probes must leave the state the audit approved untouched.
    Audit(db, &out);
    WriteTrace(args, tracer);
  }
  inst = Instance{};
  for (int rep = 1; rep < w.setup_reps; ++rep) {
    BuildInstance(args, w, &off, &out);
  }
  return Finish(args, &out);
}

// ---------------------------------------------------------------------------
// server_mix
// ---------------------------------------------------------------------------
//
// An ArielServer with default options on its own thread; three client
// threads, each with one connection and synchronous round trips. Each client
// owns the emp ids congruent to its index mod 3 and only reads and writes
// those, so every reply can be checked against the client's own model and
// the final table does not depend on how the clients interleave.

constexpr int kServerClients = 3;

struct ServerMixSize {
  int emp_rows;
  int rules;
};

class ClientStream {
 public:
  /// Client `client`'s stream for a run seeded with `seed`; `stream`
  /// selects an independent command sequence over the same initial table.
  ClientStream(uint64_t seed, uint64_t stream, int client,
               const ServerMixSize& size)
      : rng_(MixSeed(seed, stream)), client_(client), size_(size) {
    for (int64_t id = client; id < size.emp_rows; id += kServerClients) {
      sal_[id] = InitialSal(seed, id, size);
      ids_.push_back(id);
    }
  }

  /// The initial salary of row `id`: a function of the seed alone, so the
  /// loader and every client agree on it.
  static int64_t InitialSal(uint64_t seed, int64_t id, const ServerMixSize& s) {
    return static_cast<int64_t>(MixSeed(seed, static_cast<uint64_t>(id) + 1000) %
                                (static_cast<uint64_t>(s.rules) * 1000));
  }

  static int64_t Dno(int64_t id) { return id % 16; }

  Op Next() {
    ++count_;
    if (client_ == 0 && count_ % 2000 == 0) {
      return Op{true, "delete sm_log", -1, {}};
    }
    const int64_t id = ids_[rng_.Uniform(ids_.size())];
    if (rng_.NextDouble() < 0.9) {
      return Op{false,
                "retrieve (emp.id, emp.sal, emp.dno) where emp.id = " +
                    std::to_string(id),
                -1,
                {Value::Int(id), Value::Int(sal_[id]), Value::Int(Dno(id))}};
    }
    sal_[id] = static_cast<int64_t>(
        rng_.Uniform(static_cast<uint64_t>(size_.rules) * 1000));
    return Op{true,
              "replace emp (sal = " + std::to_string(sal_[id]) +
                  ") where emp.id = " + std::to_string(id),
              1,
              {}};
  }

 private:
  Random rng_;
  int client_;
  ServerMixSize size_;
  std::unordered_map<int64_t, int64_t> sal_;
  std::vector<int64_t> ids_;
  uint64_t count_ = 0;
};

/// Splits one rendered result table into rows of trimmed cells.
std::vector<std::vector<std::string>> TableRows(const std::string& payload) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream in(payload);
  std::string line;
  int index = 0;
  while (std::getline(in, line)) {
    if (index++ < 2 || line.empty() || line[0] != '|') continue;
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream cols(line.substr(1));
    while (std::getline(cols, cell, '|')) {
      const size_t b = cell.find_first_not_of(' ');
      const size_t e = cell.find_last_not_of(' ');
      cells.push_back(b == std::string::npos ? "" : cell.substr(b, e - b + 1));
    }
    rows.push_back(std::move(cells));
  }
  return rows;
}

/// Checks a wire reply against the model's prediction; returns the tuples
/// the command changed.
double CheckReply(const Op& op,
                  const Result<ariel::server::ClientConnection::Response>& reply,
                  LoopStats* stats) {
  if (!reply.ok() || reply->kind != ariel::server::kRespOk) {
    ++stats->failed;
    stats->Problem(op.text + " -> " +
                   (reply.ok() ? reply->payload : reply.status().ToString()));
    return 0;
  }
  if (op.write) {
    // "(N tuples affected)\n", or "ok\n" when nothing changed.
    const double rows = reply->payload[0] == '('
                            ? std::strtod(reply->payload.c_str() + 1, nullptr)
                            : 0.0;
    if (op.expect_affected >= 0 &&
        rows != static_cast<double>(op.expect_affected)) {
      ++stats->wrong;
      stats->Problem(op.text + " replied " + reply->payload);
    }
    return rows;
  }
  const std::vector<std::vector<std::string>> rows = TableRows(reply->payload);
  bool ok = rows.size() == 1 && rows[0].size() == op.expect_row.size();
  for (size_t i = 0; ok && i < op.expect_row.size(); ++i) {
    ok = rows[0][i] == op.expect_row[i].ToString();
  }
  if (!ok) {
    ++stats->wrong;
    stats->Problem(op.text + " replied " + reply->payload);
  }
  return 0;
}

/// One server plus its connected clients.
class ServerRig {
 public:
  ServerRig(uint64_t seed, const ServerMixSize& size, Tracer* setup_tracer)
      : db_(SetupOptions()) {
    MustExec(&db_, "create emp (id = int, name = string, sal = int, dno = int)");
    MustExec(&db_, "create sm_log (id = int)");
    MustExec(&db_, "define index on emp (id)");
    std::vector<std::string> appends;
    for (int64_t id = 0; id < size.emp_rows; ++id) {
      appends.push_back("append emp (id = " + std::to_string(id) +
                        ", name = \"e" + std::to_string(id) + "\", sal = " +
                        std::to_string(ClientStream::InitialSal(seed, id, size)) +
                        ", dno = " + std::to_string(ClientStream::Dno(id)) +
                        ")");
    }
    LoadRows(&db_, appends, 500);
    std::vector<std::string> names, texts;
    for (int j = 0; j < size.rules; ++j) {
      const int64_t lo = static_cast<int64_t>(j) * 1000;
      names.push_back("watch_" + std::to_string(j));
      texts.push_back("define rule " + names.back() + " if " +
                      std::to_string(lo) + " < emp.sal and emp.sal <= " +
                      std::to_string(lo + 20) +
                      " then append to sm_log (id = emp.id)");
    }
    InstallRules(&db_, names, texts, setup_tracer, &install_us_,
                 &activate_us_);

    ariel::server::ServerOptions options;
    options.port = 0;  // ephemeral: the only non-default server option
    server_ = std::make_unique<ariel::server::ArielServer>(&db_, options);
    MustOk(server_->Start(), "server start");
    thread_ = std::thread([this] { run_status_ = server_->Run(); });
    Cpus().PinToEngineCpu(thread_.native_handle());
    for (int c = 0; c < kServerClients; ++c) {
      auto conn =
          ariel::server::ClientConnection::Connect("127.0.0.1", server_->port());
      if (!conn.ok()) {
        Stop();
        Die("client connect: " + conn.status().ToString());
      }
      clients_.push_back(std::move(conn).value());
    }
  }

  ~ServerRig() { Stop(); }
  ServerRig(const ServerRig&) = delete;
  ServerRig& operator=(const ServerRig&) = delete;

  /// Closes the clients and shuts the server down; the database stays.
  void Stop() {
    for (auto& client : clients_) client.Close();
    clients_.clear();
    if (thread_.joinable()) {
      server_->RequestShutdown();
      thread_.join();
      MustOk(run_status_, "server run");
    }
  }

  Database* db() { return &db_; }
  ariel::server::ClientConnection* client(int c) {
    return &clients_[static_cast<size_t>(c)];
  }
  const std::vector<double>& install_us() const { return install_us_; }
  const std::vector<double>& activate_us() const { return activate_us_; }

  /// Runs `body(c)` on one thread per client and waits for all of them.
  template <typename Body>
  void OnEachClient(Body body) {
    std::vector<std::thread> threads;
    for (int c = 0; c < kServerClients; ++c) {
      threads.emplace_back([&body, c] {
        Cpus().PinToOtherCpus(pthread_self());
        body(c);
      });
    }
    for (std::thread& t : threads) t.join();
  }

 private:
  Database db_;
  std::vector<double> install_us_;
  std::vector<double> activate_us_;
  std::unique_ptr<ariel::server::ArielServer> server_;
  Status run_status_;
  std::thread thread_;
  std::vector<ariel::server::ClientConnection> clients_;
};

/// Client-side closed loop: each client sends its next command only after
/// the previous reply arrived. Slices are counted from `start`, shared by
/// all clients so their slices line up.
LoopStats ClientLoop(ariel::server::ClientConnection* conn, ClientStream* stream,
                     int64_t start, double seconds, double slice_s,
                     Tracer* tracer, uint64_t id_base) {
  LoopStats stats;
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  const auto slice_ns = static_cast<int64_t>(slice_s * 1e9);
  uint64_t n = 0;
  for (int64_t t0 = NowNs(); t0 < deadline; t0 = NowNs()) {
    const Op op = stream->Next();
    Result<ariel::server::ClientConnection::Response> reply = [&] {
      ScopedSpan span(tracer, "client.round_trip", -1, id_base + ++n);
      return conn->RoundTrip(op.text);
    }();
    const double latency_us = static_cast<double>(NowNs() - t0) / 1e3;
    const double rows = CheckReply(op, reply, &stats);
    stats.Record(static_cast<size_t>(std::max<int64_t>(0, t0 - start) /
                                     slice_ns),
                 op.write, latency_us, rows);
  }
  stats.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  stats.CloseSlices(seconds, slice_s);
  return stats;
}

/// Runs the three clients for `seconds` and merges their slices. The server
/// thread does the engine's work for every client, so the speed of its CPU
/// sets the clients' latencies: the host gauge runs beside it.
LoopStats RunClients(ServerRig* rig, std::vector<ClientStream>* streams,
                     double seconds, double slice_s,
                     std::vector<Tracer>* tracers) {
  std::vector<LoopStats> per(kServerClients);
  const int64_t start = NowNs();
  const auto slice_ns = static_cast<int64_t>(slice_s * 1e9);
  LoopStats all;
  {
    BackgroundGauge gauge(start, slice_ns, &all);
    rig->OnEachClient([&](int c) {
      const auto i = static_cast<size_t>(c);
      per[i] = ClientLoop(rig->client(c), &(*streams)[i], start, seconds,
                          slice_s, &(*tracers)[i],
                          static_cast<uint64_t>(c) << 40);
    });
  }
  for (const LoopStats& s : per) all.Merge(s, /*aligned=*/true);
  return all;
}

/// A server set up from the seed (timed into out->setup_s) whose clients
/// have run the untimed warm-up prefix; records a digest of the whole emp
/// table as the clients see it (rows sorted, so row order does not matter).
std::unique_ptr<ServerRig> BuildRig(const Args& args, const ServerMixSize& size,
                                    int warmup_ops, Tracer* tracer,
                                    std::vector<ClientStream>* streams,
                                    RunOutcome* out) {
  std::unique_ptr<ServerRig> rig;
  out->setup_s.push_back(TimeSetup(
      [&] { rig = std::make_unique<ServerRig>(args.seed, size, tracer); }));
  streams->clear();
  for (int c = 0; c < kServerClients; ++c) {
    streams->emplace_back(args.seed, static_cast<uint64_t>(c), c, size);
  }
  std::vector<LoopStats> warm(kServerClients);
  rig->OnEachClient([&](int c) {
    const auto i = static_cast<size_t>(c);
    for (int n = 0; n < warmup_ops; ++n) {
      const Op op = (*streams)[i].Next();
      CheckReply(op, rig->client(c)->RoundTrip(op.text), &warm[i]);
    }
  });
  for (const LoopStats& w : warm) {
    if (w.failed != 0 || w.wrong != 0) {
      Die("warm-up prefix failed: " + w.first_problem);
    }
  }
  auto table = rig->client(0)->RoundTrip("retrieve (emp.id, emp.sal, emp.dno)");
  if (!table.ok() || table->kind != ariel::server::kRespOk) {
    Die("digest retrieve failed");
  }
  std::vector<std::string> lines;
  for (const auto& row : TableRows(table->payload)) {
    std::string joined;
    for (const std::string& cell : row) joined += cell + "|";
    lines.push_back(joined);
  }
  std::sort(lines.begin(), lines.end());
  std::string all;
  for (const std::string& l : lines) all += l + "\n";
  if (static_cast<int>(lines.size()) != size.emp_rows) {
    out->end_state_ok = false;
    out->end_state_why =
        "digest retrieve returned " + std::to_string(lines.size()) + " rows";
  }
  out->digests.push_back(Digest(all));
  return rig;
}

/// Same shape as RunInProcess: the first rig runs the timed section, the
/// extra set-up repetitions follow.
int RunServerMix(const Args& args) {
  const ServerMixSize size =
      args.smoke ? ServerMixSize{1000, 10} : ServerMixSize{10000, 50};
  const int setup_reps = args.smoke ? 2 : 5;
  const int warmup_ops = args.smoke ? 200 : 1000;
  const double slice_s = std::min(0.5, args.seconds / 2);
  RunOutcome out;
  Tracer tracer(args.trace);
  Tracer off(false);
  std::vector<ClientStream> streams;
  std::unique_ptr<ServerRig> rig =
      BuildRig(args, size, warmup_ops, &tracer, &streams, &out);
  out.peak_rss_mb = PeakRssMiB();
  PrintEffectiveOptions(*rig->db());
  std::printf("server: default ServerOptions on an ephemeral port, "
              "%d client threads, synchronous round trips\n",
              kServerClients);

  std::vector<Tracer> untraced_tracers(kServerClients, Tracer(false));
  const EngineCounters before = EngineCounters::Read();
  if (!args.trace) {
    out.stats = RunClients(rig.get(), &streams, args.seconds, slice_s,
                           &untraced_tracers);
    out.layers.delta = EngineCounters::Read().Minus(before);
  } else {
    LoopStats untraced = RunClients(rig.get(), &streams, args.seconds / 2,
                                    slice_s, &untraced_tracers);
    std::vector<Tracer> client_tracers(kServerClients, Tracer(true));
    const EngineCounters mid = EngineCounters::Read();
    LoopStats traced = RunClients(rig.get(), &streams, args.seconds / 2,
                                  slice_s, &client_tracers);
    out.layers.delta = EngineCounters::Read().Minus(mid);
    for (const Tracer& t : client_tracers) tracer.Absorb(t);
    out.layers.commands = static_cast<double>(traced.attempted);
    out.layers.rows_changed = traced.rows_changed;
    out.layers.wall_s = traced.wall_s;
    out.layers.untraced_mean_us = untraced.MedianMeanUs();
    out.layers.traced_mean_us = traced.MedianMeanUs();
    out.layers.host_factor = traced.MedianHostFactor();
    // server.overhead_us subtracts a mean, so it takes the plain mean too.
    double rt_sum = 0;
    for (const Slice& slice : traced.slices) {
      rt_sum += slice.MeanUs() * slice.commands();
    }
    out.layers.round_trip_mean_us = Ratio(rt_sum, out.layers.commands);
    out.stats = std::move(untraced);
    out.stats.Merge(traced, /*aligned=*/false);
  }
  rig->Stop();

  Database* db = rig->db();
  Audit(db, &out);
  const ariel::HeapRelation* emp = db->catalog().GetRelation("emp");
  if (emp == nullptr || static_cast<int>(emp->size()) != size.emp_rows) {
    out.end_state_ok = false;
    out.end_state_why = "emp row count changed";
  }
  if (args.trace) {
    Random rng(MixSeed(args.seed, 7));
    ClientStream sample(args.seed, 99, 0, size);
    std::vector<std::string> texts;
    for (int i = 0; i < (args.smoke ? 200 : 2000); ++i) {
      texts.push_back(sample.Next().text);
    }
    ProbeParseAndPlan(db, texts, &tracer);
    auto probe_tuple = [&](Random* r) {
      return Tuple(std::vector<Value>{
          Value::Int(-1), Value::String("probe"),
          Value::Int(static_cast<int64_t>(
              r->Uniform(static_cast<uint64_t>(size.rules) * 1000))),
          Value::Int(0)});
    };
    out.layers.probes = RunProbes(db, "emp", probe_tuple, &rng, &tracer,
                                  args.smoke ? 50 : 400, &out.stats);
    out.layers.self = tracer.SelfTimes();
    out.layers.install_us = Median(rig->install_us());
    out.layers.activate_us = Median(rig->activate_us());
    Audit(db, &out);
    WriteTrace(args, tracer);
  }
  rig.reset();
  for (int rep = 1; rep < setup_reps; ++rep) {
    std::unique_ptr<ServerRig> extra =
        BuildRig(args, size, warmup_ops, &off, &streams, &out);
  }
  return Finish(args, &out);
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: ariel_perfbench --workload rule_heavy|join_heavy|"
               "server_mix --seed N --seconds S --trace 0|1 [--smoke] "
               "[--trace-dir DIR]\n");
  std::exit(64);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--trace-dir") {
      args.trace_dir = value();
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else {
      Usage();
    }
  }
  if (args.workload.empty() || !(args.seconds > 0)) Usage();
  return args;
}

/// The engine silently applies ARIEL_* environment overrides; a benchmark
/// run must measure the defaults, so any such variable stops it.
void RefuseEngineOverrides() {
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "ARIEL_", 6) == 0) {
      Die(std::string("refusing to run with an engine override set: ") + *env);
    }
  }
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  RefuseEngineOverrides();
  Cpus().PinToEngineCpu(pthread_self());
  std::printf("workload: %s seed: %llu seconds: %g trace: %d%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.smoke ? " (smoke size)" : "");
  if (args.workload == "rule_heavy") {
    InProcessWorkload w;
    w.setup = SetupRuleHeavy;
    w.setup_reps = args.smoke ? 2 : 5;
    w.warmup_ops = args.smoke ? 300 : 2000;
    w.slice_s = std::min(0.5, args.seconds / 2);
    w.probe_relation = "emp";
    const int slots = args.smoke ? 99 : 1000;
    w.probe_tuple = [slots](Random* r) {
      // A salary inside some rule's band, as in the paper's token test.
      const int64_t band = static_cast<int64_t>(r->Uniform(
          static_cast<uint64_t>(slots)));
      return Tuple(std::vector<Value>{
          Value::Int(-1), Value::String("probe"), Value::Int(30),
          Value::Float(10000.0 + band * 1000 + 10), Value::Int(1 + band % 7),
          Value::Int(1 + band % 5)});
    };
    return RunInProcess(args, w);
  }
  if (args.workload == "join_heavy") {
    InProcessWorkload w;
    w.setup = SetupJoinHeavy;
    w.setup_reps = args.smoke ? 2 : 3;
    w.warmup_ops = 16;
    w.slice_s = std::min(2.0, args.seconds / 2);
    w.probe_relation = "emp";
    const uint64_t depts = args.smoke ? 16 : 128;
    w.probe_tuple = [depts](Random* r) {
      return Tuple(std::vector<Value>{
          Value::Int(-1),
          Value::Int(static_cast<int64_t>(r->Uniform(kJoinSalDomain))),
          Value::Int(static_cast<int64_t>(r->Uniform(depts)))});
    };
    return RunInProcess(args, w);
  }
  if (args.workload == "server_mix") return RunServerMix(args);
  Usage();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
