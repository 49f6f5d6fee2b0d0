#include "query/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>

#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"

namespace colgraph {

QueryEngine::QueryEngine(const MasterRelation* relation,
                         const EdgeCatalog* catalog, const ViewCatalog* views,
                         obs::QueryLog* query_log,
                         const std::vector<RelationSegment>* segments)
    // Non-owning: the aliasing constructor with an empty owner.
    : single_{std::shared_ptr<const MasterRelation>(
                  std::shared_ptr<const MasterRelation>(), relation),
              0},
      catalog_(catalog),
      views_(views),
      log_(query_log),
      segments_(segments) {
  COLGRAPH_CHECK(segments == nullptr ||
                 (!segments->empty() &&
                  segments->front().relation.get() == relation));
}

QueryEngine::ResolvedQuery QueryEngine::Resolve(const GraphQuery& query) const {
  ResolvedQuery resolved;
  const DirectedGraph& g = query.graph();
  for (const Edge& e : g.edges()) {
    const auto id = catalog_->Lookup(e);
    if (!id.has_value()) {
      if (e.IsNode()) continue;  // node without a measure column: unconstrained
      resolved.satisfiable = false;  // edge never seen: no record matches
      continue;
    }
    resolved.ids.push_back(*id);
  }
  // Isolated nodes constrain the result when they carry a measure column.
  for (const NodeRef& n : g.nodes()) {
    if (g.OutDegree(n) == 0 && g.InDegree(n) == 0) {
      const auto id = catalog_->Lookup(Edge{n, n});
      if (id.has_value()) resolved.ids.push_back(*id);
    }
  }
  std::sort(resolved.ids.begin(), resolved.ids.end());
  resolved.ids.erase(std::unique(resolved.ids.begin(), resolved.ids.end()),
                     resolved.ids.end());
  return resolved;
}

size_t QueryEngine::SourceCardinality(const MasterRelation& rel,
                                      const BitmapSource& source) {
  switch (source.kind) {
    case BitmapSource::Kind::kEdge:
      return rel.EdgeBitmapCardinality(static_cast<EdgeId>(source.index));
    case BitmapSource::Kind::kGraphView:
      return rel.GraphViewCardinality(source.index);
    case BitmapSource::Kind::kAggViewBitmap:
      return rel.AggViewCardinality(source.index);
  }
  return 0;
}

const Bitmap& QueryEngine::FetchSource(const MasterRelation& rel,
                                       const BitmapSource& source) const {
  switch (source.kind) {
    case BitmapSource::Kind::kEdge:
      return rel.FetchEdgeBitmap(static_cast<EdgeId>(source.index), &stats());
    case BitmapSource::Kind::kGraphView:
      return rel.FetchGraphView(source.index, &stats());
    case BitmapSource::Kind::kAggViewBitmap:
      return rel.FetchAggregateViewBitmap(source.index, &stats());
  }
  // Unreachable; keeps -Wreturn-type happy.
  return rel.FetchEdgeBitmap(0, &stats());
}

const HybridBitmap* QueryEngine::PeekSourceHybrid(const MasterRelation& rel,
                                                  const BitmapSource& source) {
  switch (source.kind) {
    case BitmapSource::Kind::kEdge:
      return rel.PeekEdgeBitmapHybrid(static_cast<EdgeId>(source.index));
    case BitmapSource::Kind::kGraphView:
      return rel.PeekGraphViewHybrid(source.index);
    case BitmapSource::Kind::kAggViewBitmap:
      return rel.PeekAggViewBitmapHybrid(source.index);
  }
  return nullptr;
}

Bitmap QueryEngine::MatchIds(const std::vector<EdgeId>& ids,
                             const QueryOptions& options,
                             bool consider_agg_bitmaps,
                             MatchPlan* plan_out) const {
  return MatchSegments(ids, options, consider_agg_bitmaps, plan_out, nullptr);
}

Bitmap QueryEngine::MatchSegments(const std::vector<EdgeId>& ids,
                                  const QueryOptions& options,
                                  bool consider_agg_bitmaps,
                                  MatchPlan* plan_out,
                                  std::vector<size_t>* step_counts) const {
  if (plan_out != nullptr) plan_out->sources.clear();
  if (ids.empty()) {
    // An unconstrained query matches every record of every segment.
    Bitmap all(num_records());
    all.Fill();
    return all;
  }
  // The global answer is the union of the per-segment answers, each
  // blitted at its segment's base (DESIGN.md §14).
  const std::span<const RelationSegment> segs = segments();
  Bitmap full(segs.size() > 1 ? num_records() : 0);
  for (size_t s = 0; s < segs.size(); ++s) {
    Bitmap matches =
        MatchSegment(s, ids, options, consider_agg_bitmaps,
                     s == 0 ? plan_out : nullptr, s == 0 ? step_counts : nullptr);
    if (segs.size() == 1) return matches;  // the answer as is, uncopied
    full.OrAt(matches, segs[s].base);
  }
  return full;
}

Bitmap QueryEngine::MatchSegment(size_t s, const std::vector<EdgeId>& ids,
                                 const QueryOptions& options,
                                 bool consider_agg_bitmaps, MatchPlan* plan_out,
                                 std::vector<size_t>* step_counts) const {
  const MasterRelation& rel = *segments()[s].relation;
  // The catalog outgrows a segment's columns when a later segment
  // introduced an edge; this segment never recorded it, so none of its
  // records match.
  if (std::any_of(ids.begin(), ids.end(), [&](EdgeId id) {
        return id >= rel.num_edge_columns();
      })) {
    return Bitmap(rel.num_records());
  }
  MatchPlan plan;
  {
    const obs::Span span(obs::QueryPhase::kRewrite, options.trace);
    plan = PlanMatch(ids, SegmentViews(s, options), consider_agg_bitmaps);
    if (s == 0 && options.order_by_selectivity) {
      // AND the most selective bitmaps first so the running conjunction
      // empties (and short-circuits) as early as possible. Cardinalities
      // come from the sealed columns' rank directories — free statistics,
      // but one cache miss per source: the small tail segments skip the
      // sort, whose lookups would cost more than the ANDs it could save.
      std::sort(plan.sources.begin(), plan.sources.end(),
                [&](const BitmapSource& a, const BitmapSource& b) {
                  return SourceCardinality(rel, a) < SourceCardinality(rel, b);
                });
    }
    if (plan_out != nullptr) *plan_out = plan;
  }
  const obs::Span span(obs::QueryPhase::kBitmapAnd, options.trace);
  return AndSources(rel, plan.sources, step_counts);
}

Bitmap QueryEngine::AndSources(const MasterRelation& rel,
                               const std::vector<BitmapSource>& sources,
                               std::vector<size_t>* step_counts) const {
  // The running conjunction stays in the hybrid (compressed) domain as long
  // as every operand so far has a hybrid sidecar — container-level ANDs
  // touch only the compressed payloads. The first plain operand (or the
  // final result) materializes it into words once; from there hybrid
  // operands apply in place via AndInto's word kernels.
  std::optional<HybridBitmap> running;
  Bitmap result;
  for (size_t i = 0; i < sources.size(); ++i) {
    // Short-circuit: once the conjunction is empty no further bitmap can
    // add records, so stop fetching. This is why column-store query time
    // *drops* as query graphs grow (Figure 3b): bigger queries are more
    // selective and the AND pipeline exits early.
    if (i > 0 && (running.has_value() ? running->None() : result.None())) {
      if (step_counts != nullptr) step_counts->resize(sources.size(), 0);
      break;
    }
    const Bitmap& plain = FetchSource(rel, sources[i]);
    const HybridBitmap* hybrid = PeekSourceHybrid(rel, sources[i]);
    if (i == 0) {
      if (hybrid != nullptr) {
        running = *hybrid;
      } else {
        result = plain;
      }
    } else if (running.has_value()) {
      if (hybrid != nullptr) {
        running = HybridBitmap::And(*running, *hybrid);
      } else {
        result = running->ToBitmap();
        running.reset();
        result.And(plain);
      }
    } else if (hybrid != nullptr) {
      hybrid->AndInto(&result);
    } else {
      result.And(plain);
    }
    if (step_counts != nullptr) {
      step_counts->push_back(running.has_value() ? running->Count()
                                                 : result.Count());
    }
  }
  if (running.has_value()) result = running->ToBitmap();
  return result;
}

Bitmap QueryEngine::Match(const GraphQuery& query,
                          const QueryOptions& options) const {
  const ResolvedQuery resolved = Resolve(query);
  if (!resolved.satisfiable) return Bitmap(num_records());
  return MatchIds(resolved.ids, options, /*consider_agg_bitmaps=*/false);
}

Bitmap QueryEngine::AndSets(const Bitmap& a, const Bitmap& b) {
  Bitmap r = a;
  r.And(b);
  return r;
}

Bitmap QueryEngine::OrSets(const Bitmap& a, const Bitmap& b) {
  Bitmap r = a;
  r.Or(b);
  return r;
}

Bitmap QueryEngine::AndNotSets(const Bitmap& a, const Bitmap& b) {
  Bitmap r = a;
  r.AndNot(b);
  return r;
}

MeasureTable QueryEngine::FetchMeasures(const Bitmap& matches,
                                        const std::vector<EdgeId>& edges) const {
  // Every set bit must name a record some segment holds: the gather below
  // indexes presence words without a per-row bound.
  COLGRAPH_CHECK_LE(matches.size(), num_records());
  const obs::Span span(obs::QueryPhase::kFetch, nullptr);
  MeasureTable table;
  table.edges = edges;
  table.records.reserve(matches.Count());
  matches.AppendSetBits(&table.records);
  table.columns.resize(edges.size());
  // Zero matching rows: no measure column needs to be read at all — the
  // other face of "larger queries are cheaper" (Figure 3b).
  if (table.records.empty()) return table;
  const size_t num_rows = table.records.size();
  for (std::vector<double>& column : table.columns) column.resize(num_rows);
  FetchStats& stats = this->stats();

  // (partition, column index) pairs of one segment, sorted by partition.
  std::vector<std::pair<size_t, size_t>> slots;
  slots.reserve(edges.size());
  std::vector<RecordId> partial_records;
  const RecordId* const records = table.records.data();
  size_t first = 0;
  for (const RelationSegment& seg : segments()) {
    // The match list is sorted and segments are contiguous id ranges, so
    // each segment owns one run of rows.
    const size_t end = static_cast<size_t>(
        std::lower_bound(records + first, records + num_rows, seg.end()) -
        records);
    if (end == first) continue;
    const size_t n = end - first;
    const MasterRelation& rel = *seg.relation;

    // Group the segment's columns by its vertical partition (Section 6.1).
    // A column the segment never grew stays NULL for its rows.
    slots.clear();
    for (size_t i = 0; i < edges.size(); ++i) {
      if (edges[i] < rel.num_edge_columns()) {
        slots.emplace_back(rel.PartitionOf(edges[i]), i);
      } else {
        std::fill_n(table.columns[i].data() + first, n,
                    std::numeric_limits<double>::quiet_NaN());
      }
    }
    std::sort(slots.begin(), slots.end());
    const auto starts_partition = [&](size_t k) {
      return k == 0 || slots[k].first != slots[k - 1].first;
    };
    size_t num_partitions = 0;
    for (size_t k = 0; k < slots.size(); ++k) {
      if (starts_partition(k)) ++num_partitions;
    }
    stats.partitions_touched += num_partitions;

    // With one sub-relation the columns gather straight into the result.
    // With p > 1, each partition assembles its own (recid, values...) rows
    // from a private copy of the segment's match run, and the p partials
    // are then merge-joined on recid. Both sides are sorted by recid and
    // share the key sequence, so each join is a linear copy into place —
    // but the extra materialization is real work that grows with the
    // partition count, reproducing the degradation of Figure 5.
    const RecordId* rows = records + first;
    for (size_t k = 0; k < slots.size(); ++k) {
      if (num_partitions > 1 && starts_partition(k)) {
        partial_records.assign(records + first, records + end);
        rows = partial_records.data();
      }
      const size_t i = slots[k].second;
      rel.FetchMeasureColumn(edges[i], &stats)
          .Gather(rows, n, seg.base, table.columns[i].data() + first,
                  nullptr);
      stats.values_fetched += n;
    }
    if (num_partitions > 1) stats.partition_joins += num_partitions - 1;
    first = end;
  }
  return table;
}

StatusOr<MeasureTable> QueryEngine::RunGraphQueryImpl(
    const GraphQuery& query, const QueryOptions& options,
    MatchPlan* plan_out) const {
  static obs::Counter& queries =
      obs::MetricsRegistry::Global().GetCounter("query.graph.count");
  static obs::LatencyHistogram& total =
      obs::MetricsRegistry::Global().GetHistogram("query.graph.total_us");
  if (obs::MetricsEnabled()) queries.Increment();
  const obs::Span total_span(&total, nullptr, "query");

  // Cooperative cancellation: poll at the phase boundaries (the match can
  // fetch many bitmaps, the fetch many columns) so a fired deadline
  // abandons the query between phases instead of after the fact.
  COLGRAPH_RETURN_NOT_OK(CheckCancellation(options.cancel));

  ResolvedQuery resolved;
  {
    const obs::Span span(obs::QueryPhase::kResolve, options.trace);
    resolved = Resolve(query);
  }
  if (!resolved.satisfiable) {
    MeasureTable empty;
    empty.edges = resolved.ids;
    empty.columns.resize(resolved.ids.size());
    return empty;
  }
  const Bitmap matches =
      MatchIds(resolved.ids, options, /*consider_agg_bitmaps=*/false, plan_out);
  COLGRAPH_RETURN_NOT_OK(CheckCancellation(options.cancel));
  // FetchMeasures records the fetch-phase histogram itself (it is a public
  // entry point too); the trace-only span here attributes the same
  // interval to this query's trace without double-counting the histogram.
  const obs::Span fetch_span(nullptr, options.trace,
                             obs::PhaseName(obs::QueryPhase::kFetch));
  return FetchMeasures(matches, resolved.ids);
}

void QueryEngine::AppendLogRecord(bool is_path_agg, AggFn fn,
                                  const GraphQuery& query,
                                  const MatchPlan& plan,
                                  const std::vector<uint32_t>& path_views,
                                  const obs::Trace& trace, uint64_t start_us,
                                  uint64_t result_cardinality) const {
  obs::QueryLogRecord rec;
  rec.kind =
      is_path_agg ? obs::QueryLogKind::kPathAgg : obs::QueryLogKind::kMatch;
  rec.fn = is_path_agg ? fn : AggFn::kSum;

  const DirectedGraph& g = query.graph();
  rec.edges = g.edges();
  for (const NodeRef& n : g.nodes()) {
    if (g.OutDegree(n) == 0 && g.InDegree(n) == 0) {
      rec.isolated_nodes.push_back(n);
    }
  }

  for (const BitmapSource& s : plan.sources) {
    if (s.kind == BitmapSource::Kind::kGraphView) {
      rec.graph_view_indexes.push_back(static_cast<uint32_t>(s.index));
    } else if (s.kind == BitmapSource::Kind::kAggViewBitmap) {
      rec.agg_view_indexes.push_back(static_cast<uint32_t>(s.index));
    }
  }
  // Aggregate views chosen by the path segmentation, on top of any bp
  // bitmaps the match plan ANDed (deduplicated, order-normalized).
  rec.agg_view_indexes.insert(rec.agg_view_indexes.end(), path_views.begin(),
                              path_views.end());
  std::sort(rec.agg_view_indexes.begin(), rec.agg_view_indexes.end());
  rec.agg_view_indexes.erase(std::unique(rec.agg_view_indexes.begin(),
                                         rec.agg_view_indexes.end()),
                             rec.agg_view_indexes.end());

  for (const obs::TraceEvent& ev : trace.events()) {
    for (size_t p = 0; p < obs::kNumQueryPhases; ++p) {
      if (std::strcmp(ev.name,
                      obs::PhaseName(static_cast<obs::QueryPhase>(p))) == 0) {
        rec.phase_us[p] += ev.duration_us;
        break;
      }
    }
  }
  rec.total_us = obs::NowMicros() - start_us;
  rec.result_cardinality = result_cardinality;
  log_->Append(rec);
}

StatusOr<MeasureTable> QueryEngine::RunGraphQuery(
    const GraphQuery& query, const QueryOptions& options) const {
  if (log_ == nullptr || !obs::QueryLogEnabled()) {
    return RunGraphQueryImpl(query, options, nullptr);
  }
  // Capture path: run with a private trace so this query's phase timings
  // are attributable even inside a batch sharing one caller trace; the
  // events are forwarded to the caller's trace afterwards.
  const uint64_t start_us = obs::NowMicros();
  obs::Trace log_trace;
  QueryOptions opts = options;
  opts.trace = &log_trace;
  MatchPlan plan;
  StatusOr<MeasureTable> result = RunGraphQueryImpl(query, opts, &plan);
  if (options.trace != nullptr) {
    for (const obs::TraceEvent& ev : log_trace.events()) {
      options.trace->Add(ev.name, start_us + ev.start_us, ev.duration_us);
    }
  }
  if (result.ok()) {
    AppendLogRecord(/*is_path_agg=*/false, AggFn::kSum, query, plan, {},
                    log_trace, start_us, result.value().num_rows());
  }
  return result;
}

obs::ExplainResult QueryEngine::Explain(const GraphQuery& query,
                                        const QueryOptions& options) const {
  obs::ExplainResult result;
  const ResolvedQuery resolved = Resolve(query);
  result.query_edges = resolved.ids;
  result.satisfiable = resolved.satisfiable;
  if (!resolved.satisfiable) return result;
  ExplainMatchInto(resolved.ids, options, /*consider_agg_bitmaps=*/false,
                   &result);
  return result;
}

obs::ExplainResult QueryEngine::ExplainAggregate(
    const GraphQuery& query, AggFn fn, const QueryOptions& options) const {
  obs::ExplainResult result;
  result.is_aggregate = true;
  const ResolvedQuery resolved = Resolve(query);
  result.query_edges = resolved.ids;
  result.satisfiable = resolved.satisfiable;
  if (!resolved.satisfiable) return result;
  // Same match plan RunAggregateQuery builds: aggregate-view bp bitmaps
  // are offered as covering bitmaps too.
  ExplainMatchInto(resolved.ids, options, /*consider_agg_bitmaps=*/true,
                   &result);

  // Path segmentation, mirroring RunAggregateQueryImpl. A cyclic query is
  // rejected by evaluation; EXPLAIN just reports zero paths for it.
  if (!query.graph().IsAcyclic()) return result;
  StatusOr<std::vector<Path>> paths = MaximalPaths(query.graph());
  if (!paths.ok()) return result;
  result.num_paths = paths.value().size();
  const ViewCatalog* views = options.use_views ? views_ : nullptr;
  for (const Path& path : paths.value()) {
    std::vector<EdgeId> elements;
    for (const Edge& e : path.Elements()) {
      const auto id = catalog_->Lookup(e);
      if (id.has_value()) elements.push_back(*id);
    }
    const PathPlan plan = PlanPathAggregation(elements, fn, views);
    for (const PathSegment& seg : plan.segments) {
      if (seg.is_view) {
        result.agg_view_indexes.push_back(seg.agg_view_column);
        result.path_elements_from_views += seg.num_elements;
      } else {
        ++result.path_elements_atomic;
      }
    }
  }
  // One list for both roles an aggregate view plays (bp bitmap in the
  // match, column in the fold) — same semantics as a query-log record.
  std::sort(result.agg_view_indexes.begin(), result.agg_view_indexes.end());
  result.agg_view_indexes.erase(
      std::unique(result.agg_view_indexes.begin(),
                  result.agg_view_indexes.end()),
      result.agg_view_indexes.end());
  return result;
}

void QueryEngine::ExplainMatchInto(const std::vector<EdgeId>& ids,
                                   const QueryOptions& options,
                                   bool consider_agg_bitmaps,
                                   obs::ExplainResult* result) const {
  const ViewCatalog* views = options.use_views ? views_ : nullptr;
  result->used_views =
      views != nullptr &&
      (views->num_graph_views() > 0 || views->num_agg_views() > 0);
  // The match MatchIds runs, counted over every segment; the sources
  // annotate segment 0's plan.
  MatchPlan plan;
  std::vector<size_t> step_counts;
  result->matched_records =
      MatchSegments(ids, options, consider_agg_bitmaps, &plan, &step_counts)
          .Count();
  const MasterRelation& rel = relation();
  for (size_t i = 0; i < plan.sources.size(); ++i) {
    const BitmapSource& source = plan.sources[i];
    obs::ExplainSource out;
    out.source = source;
    out.estimated_cardinality = SourceCardinality(rel, source);
    out.hybrid = PeekSourceHybrid(rel, source) != nullptr;
    out.cumulative_cardinality = step_counts[i];
    switch (source.kind) {
      case BitmapSource::Kind::kEdge:
        out.covers = {static_cast<EdgeId>(source.index)};
        result->residual_edges.push_back(static_cast<EdgeId>(source.index));
        break;
      case BitmapSource::Kind::kGraphView:
        for (const auto& [def, index] : views->graph_views()) {
          if (index == source.index) out.covers = def.edges;
        }
        result->graph_view_indexes.push_back(source.index);
        break;
      case BitmapSource::Kind::kAggViewBitmap:
        for (const auto& [def, index] : views->agg_views()) {
          if (index == source.index) {
            out.covers = GraphViewDef::Make(def.elements).edges;
          }
        }
        result->agg_view_indexes.push_back(source.index);
        break;
    }
    result->sources.push_back(std::move(out));
  }
  std::sort(result->residual_edges.begin(), result->residual_edges.end());
}

}  // namespace colgraph
