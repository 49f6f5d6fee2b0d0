// Shared machinery of the benchmark: run arguments, latency samples, the
// result document, the span log of a traced run and its layer budget, and
// the timed set-up every workload shares.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "inputs.h"
#include "server/daemon.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory for result documents and span logs (created by run.py).
  std::string out_dir = ".";
  std::string git_sha = "none";
  std::string source_digest = "none";
};

/// Verdict of comparing a served answer with the oracle's; see
/// CompareAnswer.
enum class Verdict : uint8_t { kSame, kRounding, kWrong };

/// Latency or cost samples; quantiles are exact (sorted copy).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  /// Nearest-rank quantile; 0 when empty.
  double Quantile(double q) const;

 private:
  std::vector<double> values_;
};

/// One completed operation of a measured window: when it started and how
/// long it took (in the unit it is reported in).
struct Op {
  int64_t start_ns;
  double latency;
};

/// Measured windows are cut into this many equal slices by operation
/// start; throughput and latency percentiles are medians over the slices,
/// so a short burst of interference from other tenants of the machine
/// moves one slice, not the result.
inline constexpr int kWindowSlices = 5;

/// Every number a run measured, with unit and sample count, plus the
/// operation tallies. Main prints the BENCHMARK.json selection of it as the last
/// stdout line; the whole document goes to the results file.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 0);
  /// p50 + the highest percentile with at least 10 samples beyond it, as
  /// `<prefix>_p50_<unit>` and `<prefix>_<pNN>_<unit>`.
  void SetLatency(const std::string& prefix, const Samples& s,
                  const std::string& unit);
  /// The same over a window [start_ns, end_ns): each percentile is the
  /// median of its value in every slice (the tail one when every slice
  /// has ten samples beyond it, else the whole window's).
  void SetSlicedLatency(const std::string& prefix, const std::vector<Op>& ops,
                        int64_t start_ns, int64_t end_ns,
                        const std::string& unit);
  /// `<name>` = operations per second, the median over the slices.
  void SetSlicedThroughput(const std::string& name, const std::vector<Op>& ops,
                           int64_t start_ns, int64_t end_ns);
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }
  double Value(const std::string& name) const {
    return metrics_.at(name).value;
  }
  const std::string& Unit(const std::string& name) const {
    return metrics_.at(name).unit;
  }

  void AddNote(const std::string& key, const std::string& json_value) {
    notes_.emplace_back(key, json_value);
  }
  std::string ToJson() const;

  // Operation tallies: failed = transport + non_ok + wrong.
  uint64_t attempted = 0;
  uint64_t transport_errors = 0;
  uint64_t non_ok = 0;
  uint64_t wrong = 0;
  uint64_t rounding = 0;  // Verdict::kRounding answers; not failures
  /// Tallies one checked answer.
  void Count(Verdict v) {
    if (v == Verdict::kWrong) ++wrong;
    if (v == Verdict::kRounding) ++rounding;
  }
  uint64_t failed() const { return transport_errors + non_ok + wrong; }

 private:
  struct Metric {
    double value = 0;
    std::string unit;
    size_t samples = 0;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

/// Full-precision JSON number (null for NaN/inf).
std::string Num(double v);
std::string Quote(const std::string& s);

double PeakRssMb();
/// Milliseconds for a fixed single-core arithmetic loop. Recorded at the
/// start and end of every run beside the results: on a shared machine it
/// shows how fast the host let this run go.
double CalibrationMs();
std::string CpuModel();
/// Restricts this thread — and every thread it starts afterwards — to the
/// first `cpus` CPUs it may run on. Returns the CPU list, e.g. "0,1".
std::string PinToCpus(int cpus);
/// Bytes of the regular files under `dir` (recursive).
uint64_t DirBytes(const std::string& dir);

/// One traced request: a root span and its layer spans. `layers` hold
/// self times already derived (Call − Execute, MatchIds − PlanMatch, ...)
/// plus each layer's work units for the ns-per-unit figures.
struct LayerSample {
  const char* layer;
  int64_t ns;
  double work;  // units of the layer's work counter (edges, bytes, ...)
  uint64_t calls = 1;  // public calls timed into `ns`
};

/// Layer budget of a traced run: per class, the root latency and every
/// layer's self time. Each class median splits into the layers' median
/// self times plus an explicit `unattributed` remainder, so the rows add
/// up to the class median by construction.
class Budget {
 public:
  void AddRequest(const std::string& cls, int64_t total_ns,
                  const std::vector<LayerSample>& layers);
  /// A layer timed outside any request (set-up, probes).
  void AddStandalone(const std::string& group, const char* layer, int64_t ns,
                     double work);
  /// Sum of ns and work for `layer` over every class and group.
  struct Totals {
    uint64_t calls = 0;
    double ns = 0;
    double work = 0;
  };
  Totals LayerTotals(const std::string& layer) const;
  /// The unattributed share of the request medians, over all classes
  /// weighted by their request counts.
  double UnattributedShare() const;
  std::string ToJson() const;
  /// Human-readable table, one block per class.
  std::string ToText() const;

 private:
  struct Layer {
    Samples self_ns;
    double work = 0;
    uint64_t calls = 0;
  };
  struct Group {
    Samples total_ns;  // root latencies (requests only)
    std::map<std::string, Layer> layers;
    std::vector<std::string> order;  // first-seen layer order
  };
  Group& GetGroup(const std::string& name);
  std::map<std::string, Group> groups_;
  std::vector<std::string> group_order_;
};

/// In-memory span log of a traced run, written out when the run ends.
class SpanLog {
 public:
  /// Returns the span's id (ids start at 1; parent 0 marks a root).
  uint32_t Record(uint32_t parent, const char* name, int64_t start_ns,
                  int64_t end_ns);
  void SetEnd(uint32_t id, int64_t end_ns) { spans_[id - 1].end_ns = end_ns; }
  bool WriteCsv(const std::string& path) const;

 private:
  struct Span {
    uint32_t parent;
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
  };
  std::vector<Span> spans_;
};

/// Times one call into a layer and records it as a child span.
struct Timer {
  int64_t start = NowNs();
  int64_t Stop(SpanLog* log, uint32_t parent, const char* name) const {
    const int64_t end = NowNs();
    log->Record(parent, name, start, end);
    return end - start;
  }
};

/// Work counters a traced replay accumulates beside the budget.
struct TraceCounters {
  double plan_sources = 0;
  double edge_sources = 0;  // residual atomic edges in the plans
  double plan_edges = 0;
  double bitmaps_fetched = 0;
  double match_calls = 0;
  double matched_rows = 0;
  double candidate_rows = 0;
  double partition_joins = 0;
  double agg_elems_from_views = 0;
  double agg_elems = 0;
  double reads = 0;
  double tails_seen = 0;
  double wire_bytes = 0;
};

/// The per-layer metrics of a traced run, from the budget totals and the
/// counters: ns per work unit of every layer plus the work ratios.
void ReportLayers(const Budget& budget, const TraceCounters& counters,
                  Report* report);

/// Set-up of one engine, each layer timed from outside: ingest every
/// record, seal, select and materialize views (graph views with budget
/// 20; aggregate views with budget 10 each for SUM and MAX, when there is
/// aggregate training), start the daemon.
struct SetupOptions {
  std::vector<colgraph::GraphQuery> graph_training;
  std::vector<colgraph::GraphQuery> agg_training;
  bool start_daemon = false;
  colgraph::server::DaemonOptions daemon;
};
struct SetupTimes {
  int64_t ingest_ns = 0;
  int64_t seal_ns = 0;
  int64_t materialize_ns = 0;
  int64_t start_ns = 0;
  size_t edges = 0;
  size_t graph_views = 0;
  size_t agg_views = 0;
  double total_s() const {
    return static_cast<double>(ingest_ns + seal_ns + materialize_ns +
                               start_ns) *
           1e-9;
  }
};
struct Served {
  std::shared_ptr<const colgraph::ColGraphEngine> engine;
  std::unique_ptr<colgraph::server::Daemon> daemon;
};
Served SetUp(const std::vector<colgraph::GraphRecord>& records,
             const SetupOptions& options, SetupTimes* times);

/// Sets up `reps` times (the served state of the last one is kept) and
/// reports `setup_s` as the median, plus each set-up layer's median into
/// `budget` under group "setup".
Served SetUpRepeated(const std::vector<colgraph::GraphRecord>& records,
                     SetupOptions options, int reps, Report* report,
                     Budget* budget);

/// A single-relation engine without views and with plain bitmaps: the
/// answer oracle. Built outside every timed window.
std::unique_ptr<colgraph::ColGraphEngine> BuildReference(
    const std::vector<colgraph::GraphRecord>& records);

/// Renders the daemon-format answer of `request` from `engine` (the
/// oracle side of the byte-for-byte comparison).
std::string ReferenceAnswer(const colgraph::ColGraphEngine& engine,
                            const ReadRequest& request);

/// Folds one more leaf's matches into a request's running answer with the
/// request's boolean combinator (QueryEngine's set operations).
colgraph::Bitmap CombineLeaf(ReadRequest::Combine op,
                             const colgraph::Bitmap& acc,
                             const colgraph::Bitmap& leaf);

/// Compares a served answer with the oracle's:
///   kSame     byte-identical.
///   kRounding a SUM answer with the same records, paths and layout whose
///             values differ only in floating-point rounding: aggregate
///             views add precomputed segment sums, the oracle adds element
///             by element, and the two orders round differently. Counted
///             and reported (sum_rounding_diffs), not failed.
///   kWrong    anything else.
/// With `base_records` > 0 the oracle knows only the first base_records
/// records (reads racing ingest): every served line must extend the
/// oracle's line with ids or values of later records only.
Verdict CompareAnswer(const std::string& served, const std::string& expected,
                      const ReadRequest& request, size_t base_records);

[[noreturn]] void Die(const std::string& message);
/// Progress line on stderr with the seconds since the process started.
void Log(const std::string& message);

// Workload entry points; each fills `report` and returns the budget of a
// traced run (empty otherwise).
void RunServeRead(const Args& args, Report* report, Budget* budget);
void RunIngestMixed(const Args& args, Report* report, Budget* budget);
void RunAnalytics(const Args& args, Report* report, Budget* budget);

}  // namespace perfbench
