// Query evaluation over the master relation (Sections 4.2, 5.3): graph
// queries reduce to bitmap conjunctions plus measure fetches; path
// aggregation folds an aggregate function along each maximal path of the
// query, reusing materialized aggregate views where possible.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "bitmap/bitmap.h"
#include "columnstore/master_relation.h"
#include "graph/catalog.h"
#include "graph/graph.h"
#include "graph/path.h"
#include "obs/explain.h"
#include "query/agg_fn.h"
#include "query/rewriter.h"
#include "util/cancellation.h"
#include "util/status.h"
#include "views/view_defs.h"

namespace colgraph {

namespace obs {
class Trace;
class QueryLog;
}  // namespace obs

/// \brief Column-major result of a measure fetch: `columns[i][r]` is the
/// measure of `edges[i]` for the r-th matching record (NaN when NULL).
struct MeasureTable {
  std::vector<RecordId> records;
  std::vector<EdgeId> edges;
  std::vector<std::vector<double>> columns;

  size_t num_rows() const { return records.size(); }
  size_t num_values() const { return num_rows() * columns.size(); }
};

/// \brief Result of a path-aggregation query F_Gq: one aggregate per
/// (maximal path, matching record) pair; `values[p][r]` aligns with
/// `paths[p]` and `records[r]`.
struct PathAggResult {
  std::vector<Path> paths;
  std::vector<RecordId> records;
  std::vector<std::vector<double>> values;
};

struct QueryOptions {
  /// Rewrite queries against materialized views (Section 5.3). When false
  /// the evaluation is oblivious to views: one bitmap per query edge, one
  /// measure column per element — the paper's baseline plan.
  bool use_views = true;
  /// AND the most selective bitmaps first (cardinalities are free from the
  /// sealed columns), maximizing early short-circuit on empty results.
  bool order_by_selectivity = true;
  /// Optional span collector: when set, every evaluation phase (resolve,
  /// rewrite, bitmap-AND, fetch, aggregate) appends a timed event. The
  /// Trace is thread-safe, so one may be shared by a whole EvaluateBatch.
  /// Phase histograms in obs::MetricsRegistry::Global() are fed whether or
  /// not a trace is attached (gated by obs::MetricsEnabled()).
  obs::Trace* trace = nullptr;
  /// Cooperative cancellation (DESIGN.md §12): when set, the evaluation
  /// loops poll the token at phase boundaries, per batch query, and every
  /// few thousand records of an aggregate fold, abandoning the query with
  /// Status::DeadlineExceeded / Status::Cancelled once it fires. The token
  /// must outlive the call; null means "never cancelled" (zero overhead).
  const CancellationToken* cancel = nullptr;
};

class ThreadPool;

/// \brief One segment of the record store (DESIGN.md §14): a sealed
/// relation whose record 0 sits at global record id `base`. A store is an
/// ordered segment list. Segment 0 is the primary relation at base 0 and
/// the only one carrying materialized views; the immutable tail datasets
/// follow in ingest order, each based where its predecessor ends.
struct RelationSegment {
  std::shared_ptr<const MasterRelation> relation;
  size_t base = 0;

  /// One past the segment's last global record id.
  size_t end() const { return base + relation->num_records(); }
};

/// \brief Evaluator bound to a segment list (one relation, or a primary
/// plus tail datasets) and its catalogs.
///
/// Thread-safe: all query entry points are const reads over the sealed
/// relation(s) and catalogs, and the shared FetchStats counters are relaxed
/// atomics, so any number of threads may evaluate queries concurrently
/// (TSan-verified by tests/concurrency_test.cc). Materializing or
/// replacing *views* concurrently with queries that use those views is the
/// one excluded combination — see DESIGN.md §8 for the contract.
class QueryEngine {
 public:
  /// `query_log` (optional) captures every executed query — structure,
  /// chosen views, per-phase timings, result cardinality — for replay and
  /// workload-driven view advice (DESIGN.md §10). The log outlives the
  /// evaluator; hooks are skipped when obs::QueryLogEnabled() is off.
  ///
  /// `segments` (optional) is the whole segment list, `relation` being its
  /// segment 0; it must outlive the evaluator. Matches are the OR of the
  /// per-segment matches (each blitted at its base); fetches and folds
  /// read each segment's run of the match list. Views and the selectivity
  /// order belong to segment 0: the other segments plan with no views and
  /// AND in edge-id order. Every fetch is charged to segment 0's
  /// FetchStats. nullptr means `relation` is the only segment.
  QueryEngine(const MasterRelation* relation, const EdgeCatalog* catalog,
              const ViewCatalog* views, obs::QueryLog* query_log = nullptr,
              const std::vector<RelationSegment>* segments = nullptr);

  /// Resolves the query's structural elements to edge-column ids.
  ///
  /// A structural *edge* absent from the catalog makes the query
  /// unsatisfiable (no record ever contained it) — flagged via `satisfiable`.
  /// An isolated *node* without a measure column is unconstrained and
  /// skipped (its column was dropped from the schema, Section 4.1).
  struct ResolvedQuery {
    std::vector<EdgeId> ids;
    bool satisfiable = true;
  };
  ResolvedQuery Resolve(const GraphQuery& query) const;

  /// Records containing the query subgraph (bitmap over record ids).
  Bitmap Match(const GraphQuery& query, const QueryOptions& options = {}) const;

  /// Match via an explicit element-id set. `plan_out` (optional) receives
  /// segment 0's executed plan — sources in AND order, after the
  /// selectivity sort — so callers (the query-log hooks) can record the
  /// rewriter's choices without re-planning.
  Bitmap MatchIds(const std::vector<EdgeId>& ids, const QueryOptions& options,
                  bool consider_agg_bitmaps,
                  MatchPlan* plan_out = nullptr) const;

  // Logical combinators over answer sets (Section 3.2):
  // [Gq1 AND Gq2] = intersection, [Gq1 OR Gq2] = union,
  // [Gq1 AND NOT Gq2] = difference.
  static Bitmap AndSets(const Bitmap& a, const Bitmap& b);
  static Bitmap OrSets(const Bitmap& a, const Bitmap& b);
  static Bitmap AndNotSets(const Bitmap& a, const Bitmap& b);

  /// Fetches the measures of `edges` for every record in `matches`,
  /// segment by segment, honoring each segment's vertical partitioning:
  /// when its columns span p partitions, the per-partition column groups
  /// are assembled separately and merge-joined on recid (p-1 joins),
  /// reproducing the Figure 5 effect. A column a segment never grew is
  /// NULL for its records.
  MeasureTable FetchMeasures(const Bitmap& matches,
                             const std::vector<EdgeId>& edges) const;

  /// Full graph query: match then fetch all of the query's measures.
  [[nodiscard]] StatusOr<MeasureTable> RunGraphQuery(const GraphQuery& query,
                                       const QueryOptions& options = {}) const;

  /// Path-aggregation query F_Gq (Section 3.4). The query graph must be a
  /// DAG (flatten cyclic queries first).
  [[nodiscard]] StatusOr<PathAggResult> RunAggregateQuery(
      const GraphQuery& query, AggFn fn,
      const QueryOptions& options = {}) const;

  // --- Batch evaluation (inter-query parallelism). ---
  //
  // A workload of independent queries fans out across `pool` (nullptr or a
  // serial pool = inline, deterministic order). Results land in pre-sized,
  // index-addressed slots — never appended — so the output is bit-identical
  // to serial evaluation for every thread count. The first failing query
  // (lowest index) aborts the batch with its Status.

  /// Evaluates `queries[i]` into slot i of the result, one RunGraphQuery
  /// per query, in parallel across `pool`.
  [[nodiscard]] StatusOr<std::vector<MeasureTable>> EvaluateBatch(
      const std::vector<GraphQuery>& queries, const QueryOptions& options = {},
      ThreadPool* pool = nullptr) const;

  /// Evaluates `queries[i]` into slot i, one RunAggregateQuery(fn) per
  /// query, in parallel across `pool`.
  [[nodiscard]] StatusOr<std::vector<PathAggResult>> EvaluatePathAggBatch(
      const std::vector<GraphQuery>& queries, AggFn fn,
      const QueryOptions& options = {}, ThreadPool* pool = nullptr) const;

  /// EXPLAIN for a graph query: the rewriter's decisions (views chosen,
  /// residual atomic edges) plus estimated vs. actual bitmap
  /// cardinalities, without fetching any measures. The sources annotate
  /// segment 0's plan: exactly the sources MatchIds ANDs there, in the
  /// same order (including the selectivity sort). `matched_records`
  /// counts every segment's matches, so it equals Match(query).Count().
  /// Reads each segment's plan bitmaps through the same AND as MatchIds,
  /// so it counts against FetchStats like a Match would.
  obs::ExplainResult Explain(const GraphQuery& query,
                             const QueryOptions& options = {}) const;

  /// EXPLAIN for a path-aggregation query: the match plan RunAggregateQuery
  /// would AND (aggregate-view bp bitmaps included, so the sources and
  /// their estimated/actual cardinalities match the kAggViewBitmap
  /// behavior) plus the path segmentation — which maximal paths fold over
  /// materialized aggregate-view columns vs. atomic measure columns. A
  /// cyclic query (which evaluation rejects) reports zero paths.
  obs::ExplainResult ExplainAggregate(const GraphQuery& query, AggFn fn,
                                      const QueryOptions& options = {}) const;

  /// Aggregates F along one explicit path, honoring open ends
  /// (Section 3.3): e.g. (D,E,G) folds the edges and E's own measure but
  /// excludes the endpoint measures of D and G. Matches are the records
  /// containing every element of the path.
  [[nodiscard]] StatusOr<PathAggResult> AggregateAlongPath(
      const Path& path, AggFn fn, const QueryOptions& options = {}) const;

  /// Segment 0, the primary relation.
  const MasterRelation& relation() const { return *single_.relation; }

 private:
  /// The segment list; segment 0 is the relation passed first.
  std::span<const RelationSegment> segments() const {
    return segments_ != nullptr ? std::span<const RelationSegment>(*segments_)
                                : std::span<const RelationSegment>(&single_, 1);
  }
  /// Records in every segment: the global record-id domain.
  size_t num_records() const { return segments().back().end(); }
  /// Segment 0's counters, charged for every segment's fetches.
  FetchStats& stats() const { return single_.relation->stats(); }
  /// The views segment `s` plans with: the catalog for segment 0 (when
  /// `options` use views), none for the others.
  const ViewCatalog* SegmentViews(size_t s, const QueryOptions& options) const {
    return s == 0 && options.use_views ? views_ : nullptr;
  }

  /// MatchIds, also writing segment 0's running AND cardinalities to
  /// *step_counts when non-null (EXPLAIN).
  Bitmap MatchSegments(const std::vector<EdgeId>& ids,
                       const QueryOptions& options, bool consider_agg_bitmaps,
                       MatchPlan* plan_out,
                       std::vector<size_t>* step_counts) const;
  /// Segment `s`'s answer over its local record ids: the plan for `ids`
  /// (segment 0's in selectivity order when `options` ask; the tails'
  /// in edge-id order) ANDed by AndSources. Empty
  /// when the segment has no column for some id: it never recorded that
  /// edge. Writes the executed plan to *plan_out when non-null.
  Bitmap MatchSegment(size_t s, const std::vector<EdgeId>& ids,
                      const QueryOptions& options, bool consider_agg_bitmaps,
                      MatchPlan* plan_out,
                      std::vector<size_t>* step_counts) const;
  /// ANDs `sources` over `rel` in order. The running conjunction stays in
  /// the hybrid (compressed) domain while every operand has a hybrid
  /// sidecar, and fetching stops once it is empty. When `step_counts` is
  /// non-null it receives the running cardinality after each source (0
  /// past the short-circuit).
  Bitmap AndSources(const MasterRelation& rel,
                    const std::vector<BitmapSource>& sources,
                    std::vector<size_t>* step_counts) const;

  /// One column of a path's fold: an atomic element measure, or an
  /// aggregate view folding `num_elements` elements. A null column (an
  /// element the segment never grew) contributes nothing.
  struct FoldColumn {
    const MeasureColumn* column = nullptr;
    bool is_view = false;
    size_t num_elements = 1;
  };
  /// The fold inputs of the records with global ids [base, base + num).
  struct FoldSegment {
    size_t base = 0;
    size_t num = 0;
    std::vector<FoldColumn> columns;
  };
  /// A path's fold inputs, one per segment: the columns of the segment's
  /// plan for `fn` over the path's measurable `elements` (aggregate views
  /// in segment 0 only). Appends the chosen aggregate-view indexes to
  /// *path_views_out when non-null.
  std::vector<FoldSegment> FoldSegments(
      const std::vector<EdgeId>& elements, AggFn fn,
      const QueryOptions& options,
      std::vector<uint32_t>* path_views_out) const;
  /// Appends to *values the fold of `fn` along one path for every record
  /// of the sorted `records`: each segment's columns are gathered a block
  /// of rows at a time, then folded row by row in column order. Polls
  /// `cancel` every kCancelCheckStride rows, counted across calls in
  /// *folded.
  [[nodiscard]] Status FoldPath(const std::vector<RecordId>& records,
                                const std::vector<FoldSegment>& segments,
                                AggFn fn, const CancellationToken* cancel,
                                size_t* folded,
                                std::vector<double>* values) const;

  /// Fetches a plan source's bitmap from `rel` (one bitmap fetch).
  const Bitmap& FetchSource(const MasterRelation& rel,
                            const BitmapSource& source) const;
  /// The source's hybrid sidecar (nullptr when plain-encoded); no
  /// accounting, so FetchStats are identical whichever encoding the AND
  /// loop consumes.
  static const HybridBitmap* PeekSourceHybrid(const MasterRelation& rel,
                                              const BitmapSource& source);
  /// Set-bit count of a plan source, without counting as a fetch.
  static size_t SourceCardinality(const MasterRelation& rel,
                                  const BitmapSource& source);

  /// Shared EXPLAIN core: runs the match of resolved edge ids and fills
  /// `result` with segment 0's annotated plan (sources in AND order,
  /// per-step estimated vs. actual cardinalities, residual edges, chosen
  /// view indexes) and the match count over every segment.
  void ExplainMatchInto(const std::vector<EdgeId>& ids,
                        const QueryOptions& options,
                        bool consider_agg_bitmaps,
                        obs::ExplainResult* result) const;

  // Un-logged evaluation bodies; the public entry points wrap them with
  // the query-log capture when a log is attached.
  [[nodiscard]] StatusOr<MeasureTable> RunGraphQueryImpl(
      const GraphQuery& query, const QueryOptions& options,
      MatchPlan* plan_out) const;
  [[nodiscard]] StatusOr<PathAggResult> RunAggregateQueryImpl(
      const GraphQuery& query, AggFn fn, const QueryOptions& options,
      MatchPlan* plan_out, std::vector<uint32_t>* path_views_out) const;
  // Builds and appends one log record from an executed query's facts.
  void AppendLogRecord(bool is_path_agg, AggFn fn, const GraphQuery& query,
                       const MatchPlan& plan,
                       const std::vector<uint32_t>& path_views,
                       const obs::Trace& trace, uint64_t start_us,
                       uint64_t result_cardinality) const;

  /// Segment 0 without an owner; the only segment when segments_ is null.
  RelationSegment single_;
  const EdgeCatalog* catalog_;
  const ViewCatalog* views_;  // may be null (no views materialized)
  obs::QueryLog* log_;        // may be null (no capture configured)
  const std::vector<RelationSegment>* segments_;  // may be null
};

}  // namespace colgraph
