// Path-aggregation execution (Section 3.4): F_Gq retrieves the records
// matching Gq and folds F along every maximal path of the query, per
// record. With views (Section 5.1.2) each path is first segmented into
// materialized aggregate-view segments plus atomic elements; the fold then
// touches one column per segment instead of one per element.
#include "query/engine.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"

namespace colgraph {

namespace {

// The aggregate fold visits every (path, record) pair; the token is polled
// every kCancelCheckStride records so a fired deadline abandons the fold
// within a bounded number of accumulator steps while keeping the poll off
// the per-record hot path.
constexpr size_t kCancelCheckStride = 4096;

}  // namespace

std::vector<QueryEngine::FoldSegment> QueryEngine::FoldSegments(
    const std::vector<EdgeId>& elements, AggFn fn, const QueryOptions& options,
    std::vector<uint32_t>* path_views_out) const {
  const std::span<const RelationSegment> segs = segments();
  std::vector<FoldSegment> out;
  out.reserve(segs.size());
  for (size_t s = 0; s < segs.size(); ++s) {
    const MasterRelation& rel = *segs[s].relation;
    // Each plan column is fetched once; accounting counts one measure-column
    // fetch per plan segment — the cost reduction the views exist to
    // provide.
    const PathPlan plan =
        PlanPathAggregation(elements, fn, SegmentViews(s, options));
    FoldSegment fold{segs[s].base, rel.num_records(), {}};
    fold.columns.reserve(plan.segments.size());
    for (const PathSegment& seg : plan.segments) {
      if (seg.is_view) {
        fold.columns.push_back(
            {&rel.FetchAggregateView(seg.agg_view_column, &stats()), true,
             seg.num_elements});
        if (path_views_out != nullptr) {
          path_views_out->push_back(static_cast<uint32_t>(seg.agg_view_column));
        }
      } else {
        // An element the segment never grew is NULL for all its records.
        fold.columns.push_back(
            {seg.atom < rel.num_edge_columns()
                 ? &rel.FetchMeasureColumn(seg.atom, &stats())
                 : nullptr,
             false, 1});
      }
    }
    out.push_back(std::move(fold));
  }
  return out;
}

Status QueryEngine::FoldPath(const std::vector<RecordId>& records,
                             const std::vector<FoldSegment>& segments,
                             AggFn fn, const CancellationToken* cancel,
                             size_t* folded,
                             std::vector<double>* values) const {
  constexpr size_t kBlock = MeasureColumn::kGatherBlock;
  size_t max_columns = 0;
  for (const FoldSegment& seg : segments) {
    max_columns = std::max(max_columns, seg.columns.size());
  }
  // One block of gathered values and presence flags per column.
  std::vector<double> block_values(max_columns * kBlock);
  std::vector<uint8_t> block_present(max_columns * kBlock);
  values->reserve(values->size() + records.size());
  const RecordId* rows = records.data();
  size_t row = 0;
  for (const FoldSegment& seg : segments) {
    // The match list is sorted and segments are contiguous id ranges, so
    // each segment owns one run of rows.
    const size_t end = static_cast<size_t>(
        std::lower_bound(rows + row, rows + records.size(),
                         seg.base + seg.num) -
        rows);
    for (size_t begin = row; begin < end; begin += kBlock) {
      const size_t len = std::min(kBlock, end - begin);
      for (size_t c = 0; c < seg.columns.size(); ++c) {
        if (seg.columns[c].column == nullptr) continue;
        seg.columns[c].column->Gather(rows + begin, len, seg.base,
                                      &block_values[c * kBlock],
                                      &block_present[c * kBlock]);
      }
      // Fold row by row in path order. Presence, not NaN, marks NULL: a
      // stored NaN measure is folded like any other value.
      for (size_t i = 0; i < len; ++i) {
        if (++*folded % kCancelCheckStride == 0) {
          COLGRAPH_RETURN_NOT_OK(CheckCancellation(cancel));
        }
        AggAccumulator acc(fn);
        for (size_t c = 0; c < seg.columns.size(); ++c) {
          const FoldColumn& col = seg.columns[c];
          if (col.column == nullptr || block_present[c * kBlock + i] == 0) {
            continue;  // record lacks this optional element
          }
          const double v = block_values[c * kBlock + i];
          if (col.is_view) {
            acc.Merge(v, col.num_elements);
          } else {
            acc.Add(v);
          }
        }
        values->push_back(acc.Result());
      }
      stats().values_fetched += len * seg.columns.size();
    }
    row = end;
  }
  return Status::OK();
}

StatusOr<PathAggResult> QueryEngine::AggregateAlongPath(
    const Path& path, AggFn fn, const QueryOptions& options) const {
  PathAggResult result;
  result.paths.push_back(path);

  // Resolve the path's measurable elements. A structural edge the catalog
  // has never seen makes the path unsatisfiable; node measures that were
  // never recorded have no column and simply do not constrain or
  // contribute (their columns were dropped from the schema, Section 4.1).
  std::vector<EdgeId> elements;
  for (const Edge& e : path.Elements()) {
    const auto id = catalog_->Lookup(e);
    if (!id.has_value()) {
      if (!e.IsNode()) {
        result.values.emplace_back();
        return result;  // unsatisfiable: no record ever had this edge
      }
      continue;
    }
    elements.push_back(*id);
  }

  const Bitmap matches =
      MatchIds(elements, options, /*consider_agg_bitmaps=*/true);
  matches.AppendSetBits(&result.records);

  const std::vector<FoldSegment> segments =
      FoldSegments(elements, fn, options, /*path_views_out=*/nullptr);

  const obs::Span agg_span(obs::QueryPhase::kAggregate, options.trace);
  std::vector<double> values;
  size_t folded = 0;
  COLGRAPH_RETURN_NOT_OK(FoldPath(result.records, segments, fn,
                                  options.cancel, &folded, &values));
  result.values.push_back(std::move(values));
  return result;
}

StatusOr<PathAggResult> QueryEngine::RunAggregateQuery(
    const GraphQuery& query, AggFn fn, const QueryOptions& options) const {
  if (log_ == nullptr || !obs::QueryLogEnabled()) {
    return RunAggregateQueryImpl(query, fn, options, nullptr, nullptr);
  }
  // Capture path — see RunGraphQuery for the private-trace rationale.
  const uint64_t start_us = obs::NowMicros();
  obs::Trace log_trace;
  QueryOptions opts = options;
  opts.trace = &log_trace;
  MatchPlan plan;
  std::vector<uint32_t> path_views;
  StatusOr<PathAggResult> result =
      RunAggregateQueryImpl(query, fn, opts, &plan, &path_views);
  if (options.trace != nullptr) {
    for (const obs::TraceEvent& ev : log_trace.events()) {
      options.trace->Add(ev.name, start_us + ev.start_us, ev.duration_us);
    }
  }
  if (result.ok()) {
    AppendLogRecord(/*is_path_agg=*/true, fn, query, plan, path_views,
                    log_trace, start_us, result.value().records.size());
  }
  return result;
}

StatusOr<PathAggResult> QueryEngine::RunAggregateQueryImpl(
    const GraphQuery& query, AggFn fn, const QueryOptions& options,
    MatchPlan* plan_out, std::vector<uint32_t>* path_views_out) const {
  if (!query.graph().IsAcyclic()) {
    return Status::InvalidArgument(
        "path aggregation requires a DAG query; flatten cycles first "
        "(Section 6.2)");
  }

  static obs::Counter& queries =
      obs::MetricsRegistry::Global().GetCounter("query.agg.count");
  static obs::LatencyHistogram& total =
      obs::MetricsRegistry::Global().GetHistogram("query.agg.total_us");
  if (obs::MetricsEnabled()) queries.Increment();
  const obs::Span total_span(&total, nullptr, "query");

  COLGRAPH_RETURN_NOT_OK(CheckCancellation(options.cancel));

  PathAggResult result;
  ResolvedQuery resolved;
  {
    const obs::Span span(obs::QueryPhase::kResolve, options.trace);
    resolved = Resolve(query);
  }
  if (!resolved.satisfiable) return result;

  // Structural match. Aggregate-view bitmaps are offered as covering
  // bitmaps too: for an aggregate query whose paths are materialized, bp
  // both filters and pays for itself.
  const Bitmap matches =
      MatchIds(resolved.ids, options, /*consider_agg_bitmaps=*/true, plan_out);
  matches.AppendSetBits(&result.records);

  COLGRAPH_ASSIGN_OR_RETURN(result.paths, MaximalPaths(query.graph()));

  const obs::Span agg_span(obs::QueryPhase::kAggregate, options.trace);
  size_t folded = 0;
  for (const Path& path : result.paths) {
    COLGRAPH_RETURN_NOT_OK(CheckCancellation(options.cancel));
    // Catalog-resolvable elements of the path, in path order. Elements
    // without a column (e.g. nodes with no recorded measure) contribute
    // nothing to the aggregate.
    std::vector<EdgeId> elements;
    for (const Edge& e : path.Elements()) {
      const auto id = catalog_->Lookup(e);
      if (id.has_value()) elements.push_back(*id);
    }

    // Plans match on the query's function; every segment whose columns
    // the fold reads is one partition visit.
    const std::vector<FoldSegment> segments =
        FoldSegments(elements, fn, options, path_views_out);
    for (const FoldSegment& seg : segments) {
      if (!seg.columns.empty()) ++stats().partitions_touched;
    }

    std::vector<double> values;
    COLGRAPH_RETURN_NOT_OK(FoldPath(result.records, segments, fn,
                                    options.cancel, &folded, &values));
    result.values.push_back(std::move(values));
  }
  return result;
}

}  // namespace colgraph
