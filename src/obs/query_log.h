// Durable query-log capture (DESIGN.md §10): an append-only binary log of
// executed queries — structure, chosen views, per-phase timings, result
// cardinality — so a live workload can be replayed (tools/colgraph_replay)
// and mined for view advice (views/workload_advisor.h). The paper's view
// selection (§5.2–§5.4) is driven entirely by the observed workload; this
// log is how a deployment observes one.
//
// The file is a framed log (obs/framed_log.h: header, CRC frames, the
// mandatory footer, buffered poison-on-failure writes) with magic "CGQL",
// footer magic "CGQF" and version 1; this header defines the record
// payload codec on top of it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "obs/framed_log.h"
#include "obs/trace.h"
#include "query/agg_fn.h"
#include "util/status.h"

namespace colgraph::obs {

namespace internal {
// Global kill switch mirroring g_metrics_enabled: gates the engine's log
// hooks without touching per-engine configuration. Relaxed: the flag gates
// observability, not correctness.
inline std::atomic<bool> g_query_log_enabled{true};
}  // namespace internal

/// True when query logging is on (the default). Engines with a configured
/// log skip the record hook entirely when off — same set-once-at-startup
/// contract as SetMetricsEnabled.
inline bool QueryLogEnabled() {
  return internal::g_query_log_enabled.load(std::memory_order_relaxed);
}
inline void SetQueryLogEnabled(bool on) {
  internal::g_query_log_enabled.store(on, std::memory_order_relaxed);
}

inline constexpr uint32_t kQueryLogMagic = 0x4C514743;   // "CGQL"
inline constexpr uint32_t kQueryLogFooterMagic = 0x46514743;  // "CGQF"
inline constexpr uint32_t kQueryLogVersion = 1;

inline constexpr FramedLogFormat kQueryLogFormat = {
    "query log", kQueryLogMagic, kQueryLogFooterMagic, kQueryLogVersion,
    "query_log.dropped"};

/// What kind of query a log record captures.
enum class QueryLogKind : uint8_t { kMatch = 0, kPathAgg = 1 };

const char* QueryLogKindName(QueryLogKind kind);

/// \brief One executed query, as recorded in (or decoded from) the log.
///
/// The structural fields (`edges`, `isolated_nodes`) losslessly rebuild the
/// original GraphQuery via ToQuery(): true edges are re-added as edges and
/// degree-0 measured nodes as isolated nodes, so replay resolves the exact
/// element set the live query did. View indexes, timings, and cardinality
/// are the observed execution facts replay and bench_compare check against.
struct QueryLogRecord {
  QueryLogKind kind = QueryLogKind::kMatch;
  /// Aggregate function (kPathAgg only; ignored and stored as kSum for
  /// match queries).
  AggFn fn = AggFn::kSum;

  /// True edges of the query graph (no self-edges).
  std::vector<Edge> edges;
  /// Degree-0 nodes (measured nodes with no incident true edge).
  std::vector<NodeRef> isolated_nodes;

  /// Relation view indexes the rewriter chose (kGraphView sources).
  std::vector<uint32_t> graph_view_indexes;
  /// Relation aggregate-view indexes whose bp bitmaps the rewriter chose.
  std::vector<uint32_t> agg_view_indexes;

  /// Wall time spent in each QueryPhase, µs (zero for phases not run).
  uint64_t phase_us[kNumQueryPhases] = {};
  /// End-to-end wall time of the query, µs.
  uint64_t total_us = 0;
  /// Result cardinality: matching records (match) or aggregated groups
  /// (path-agg). Zero for unsatisfiable queries — those are logged too;
  /// the advisor must see misses to judge view support honestly.
  uint64_t result_cardinality = 0;

  /// Rebuilds the query graph this record was captured from.
  GraphQuery ToQuery() const;
};

/// \brief Per-engine query-log configuration (EngineOptions::query_log).
struct QueryLogOptions {
  /// Log file path; empty disables capture (the default).
  std::string path;
  /// Buffered bytes before the writer flushes to the file. The floor of 1
  /// effectively means "flush every record" — useful in tests.
  size_t flush_bytes = size_t{64} * 1024;
};

/// \brief Append-only query-log writer. Thread-safe: batch workers append
/// concurrently; each Append serializes its record outside the lock and
/// enqueues the frame under one mutex.
///
/// Errors: Append is void (hot path) — the first failed file write poisons
/// the log (later appends drop and count into `query_log.dropped`, a
/// one-line warning goes to stderr) and the error is returned from
/// Close(). Close() is idempotent and must be called for the log to be
/// readable at all (it writes the mandatory footer); the destructor closes
/// best-effort.
class QueryLog final : public FramedLogWriter {
 public:
  /// Creates (truncating) the log file and writes the header.
  static StatusOr<std::unique_ptr<QueryLog>> Open(QueryLogOptions options);

  /// Serializes and enqueues one record; flushes if the buffer is full.
  void Append(const QueryLogRecord& record);

  const std::string& path() const { return options_.path; }

 private:
  QueryLog(QueryLogOptions options, io::AppendFile file)
      : FramedLogWriter(kQueryLogFormat, options.flush_bytes,
                        std::move(file)),
        options_(std::move(options)) {}

  const QueryLogOptions options_;
};

/// Serializes one record as a complete [type|len|crc|payload] frame,
/// appended to `out`. Exposed for the reader's tests.
void AppendRecordFrame(const QueryLogRecord& record, std::vector<char>* out);

}  // namespace colgraph::obs
