// Scoped query tracing (DESIGN.md §9): Span is the one sanctioned way to
// time a region of the query path — it feeds the process-wide phase
// histograms and, when a Trace is attached via QueryOptions, records a
// per-query event the EXPLAIN/tracing consumers can render. The repo lint
// ([no-adhoc-timing]) bans ad-hoc Stopwatch timing inside src/query/ so
// every measured phase is visible through this API.
//
// Phases mirror the paper's cost decomposition (Figures 6/7): a graph
// query is resolve (parse ids against the catalog) → rewrite (set-cover
// against the views) → bitmap-AND → fetch (measure columns); aggregate
// queries add the fold phase.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/sync.h"

namespace colgraph::obs {

/// Steady-clock microseconds since an arbitrary epoch (comparable within
/// the process only).
inline uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The fixed phases of query evaluation. Kept as an enum (not free-form
/// strings) so the per-phase histograms are stable, cacheable and cheap.
enum class QueryPhase : uint8_t {
  kResolve = 0,
  kRewrite,
  kBitmapAnd,
  kFetch,
  kAggregate,
};
inline constexpr size_t kNumQueryPhases = 5;

/// Stable phase label ("resolve", "rewrite", "bitmap_and", "fetch",
/// "aggregate") — used as the trace event name and the histogram suffix.
const char* PhaseName(QueryPhase phase);

/// The global registry histogram for `phase`
/// ("query.phase.<name>_us"), resolved once and cached.
LatencyHistogram& PhaseHistogram(QueryPhase phase);

/// \brief One timed region inside a trace.
struct TraceEvent {
  const char* name;      ///< static string (phase or caller-provided label)
  uint64_t start_us;     ///< microseconds since the trace was constructed
  uint64_t duration_us;
};

/// \brief Per-query (or per-batch) span collector. Thread-safe: a batch
/// evaluated across the pool may share one Trace; events append under a
/// mutex in completion order. Attach via QueryOptions::trace.
class Trace {
 public:
  Trace() : origin_us_(NowMicros()) {}
  /// A trace whose time origin is `origin_us` (NowMicros clock).
  explicit Trace(uint64_t origin_us) : origin_us_(origin_us) {}

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Records one event; `start_us` is absolute (NowMicros clock).
  void Add(const char* name, uint64_t start_us, uint64_t duration_us);

  /// Snapshot of the events recorded so far, in completion order.
  std::vector<TraceEvent> events() const;

  /// {"events":[{"name":...,"start_us":...,"duration_us":...},...]}
  std::string ToJson() const;

 private:
  const uint64_t origin_us_;
  mutable Mutex mu_;
  std::vector<TraceEvent> events_ COLGRAPH_GUARDED_BY(mu_);
};

/// \brief RAII timer: on destruction records the scope's duration into a
/// histogram (if any) and a trace (if any). When metrics are disabled and
/// no trace is attached, construction and destruction are branch-only —
/// no clock reads, no stores.
class Span {
 public:
  Span(LatencyHistogram* histogram, Trace* trace, const char* name)
      : histogram_(MetricsEnabled() ? histogram : nullptr),
        trace_(trace),
        name_(name),
        start_us_(histogram_ != nullptr || trace_ != nullptr ? NowMicros()
                                                             : 0) {}

  /// Phase convenience: times into the phase's global histogram.
  Span(QueryPhase phase, Trace* trace)
      : Span(&PhaseHistogram(phase), trace, PhaseName(phase)) {}

  ~Span() {
    if (histogram_ == nullptr && trace_ == nullptr) return;
    const uint64_t duration = NowMicros() - start_us_;
    if (histogram_ != nullptr) histogram_->Record(duration);
    if (trace_ != nullptr) trace_->Add(name_, start_us_, duration);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LatencyHistogram* histogram_;
  Trace* trace_;
  const char* name_;
  uint64_t start_us_;
};

}  // namespace colgraph::obs
