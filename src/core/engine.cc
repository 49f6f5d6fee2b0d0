#include "core/engine.h"

#include <algorithm>
#include <cstdio>

#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "views/aggregate_views.h"
#include "views/apriori.h"
#include "views/candidate_generation.h"
#include "views/materializer.h"
#include "views/set_cover.h"

namespace colgraph {

ColGraphEngine::ColGraphEngine(EngineOptions options)
    : options_(std::move(options)),
      segments_{{std::make_shared<MasterRelation>(options_.relation), 0}} {
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
  if (!options_.query_log.path.empty()) {
    auto log = obs::QueryLog::Open(options_.query_log);
    if (log.ok()) {
      query_log_ = std::shared_ptr<obs::QueryLog>(std::move(log.value()));
    } else {
      // Constructors cannot return Status; capture is observability, so
      // degrade to "no log" loudly instead of failing the engine.
      std::fprintf(stderr,
                   "colgraph: query log disabled (open failed): %s\n",
                   log.status().ToString().c_str());
    }
  }
}

ColGraphEngine::ColGraphEngine(const ColGraphEngine& other)
    : ColGraphEngine(other, ShareTag{}) {
  // Tails are immutable: sharing them IS copying. The primary is cloned.
  segments_.front().relation =
      std::make_shared<MasterRelation>(other.relation());
}

ColGraphEngine::ColGraphEngine(const ColGraphEngine& other, ShareTag)
    : options_(other.options_),
      catalog_(other.catalog_),
      segments_(other.segments_),  // shared; OwnedRelation() clones on write
      views_(other.views_),
      query_log_(other.query_log_),
      append_watermark_(other.append_watermark_) {
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
}

ColGraphEngine ColGraphEngine::SharedCopy() const {
  return ColGraphEngine(*this, ShareTag{});
}

ColGraphEngine& ColGraphEngine::operator=(const ColGraphEngine& other) {
  if (this != &other) *this = ColGraphEngine(other);
  return *this;
}

MasterRelation& ColGraphEngine::OwnedRelation() {
  // Copy-on-write: a use_count above one means a SharedCopy (a published
  // snapshot) still reads this relation; clone before the first in-place
  // write. Writer-side races are the caller's to exclude (the daemon holds
  // its writer mutex); readers only ever touch fully-built relations.
  std::shared_ptr<const MasterRelation>& primary = segments_.front().relation;
  if (primary.use_count() > 1) {
    primary = std::make_shared<MasterRelation>(*primary);
  }
  // Segment 0 is always allocated as a mutable MasterRelation (see
  // segments_), and this engine is now its only owner.
  return const_cast<MasterRelation&>(*primary);
}

ColGraphEngine ColGraphEngine::FromParts(EngineOptions options,
                                         EdgeCatalog catalog,
                                         MasterRelation relation,
                                         ViewCatalog views) {
  ColGraphEngine engine(options);
  engine.catalog_ = std::move(catalog);
  engine.segments_.front().relation =
      std::make_shared<MasterRelation>(std::move(relation));
  engine.views_ = std::move(views);
  return engine;
}

StatusOr<RecordId> ColGraphEngine::AddRecord(const GraphRecord& record) {
  if (record.elements.size() != record.measures.size()) {
    return Status::InvalidArgument(
        "record elements/measures size mismatch for record " +
        std::to_string(record.id));
  }
  std::vector<std::pair<EdgeId, double>> shredded;
  shredded.reserve(record.elements.size());
  for (size_t i = 0; i < record.elements.size(); ++i) {
    shredded.emplace_back(catalog_.GetOrAssign(record.elements[i]),
                          record.measures[i]);
  }
  return OwnedRelation().AddRecord(shredded);
}

StatusOr<RecordId> ColGraphEngine::AddWalk(const std::vector<NodeId>& walk,
                                           const std::vector<double>& measures) {
  if (walk.size() < 2) {
    return Status::InvalidArgument("a walk needs at least two nodes");
  }
  if (measures.size() != walk.size() - 1) {
    return Status::InvalidArgument("a walk of n nodes needs n-1 measures");
  }
  GraphRecord record;
  record.elements = WalkToEdges(walk);
  record.measures = measures;
  return AddRecord(record);
}

void ColGraphEngine::RegisterUniverse(const std::vector<Edge>& edges) {
  for (const Edge& e : edges) catalog_.GetOrAssign(e);
  OwnedRelation().EnsureColumns(catalog_.size());
}

Status ColGraphEngine::Seal() { return OwnedRelation().Seal(); }

Status ColGraphEngine::BeginAppend() {
  if (segments_.size() > 1) {
    // In-place growth would shift every tail's global id base out from
    // under published bitmaps; collapse the datasets first.
    return Status::InvalidArgument(
        "cannot append in place while tail datasets are attached; "
        "Compact() first");
  }
  COLGRAPH_RETURN_NOT_OK(OwnedRelation().Unseal());
  append_watermark_ = num_records();
  return Status::OK();
}

Status ColGraphEngine::FinishAppend() {
  MasterRelation& relation = OwnedRelation();
  COLGRAPH_RETURN_NOT_OK(relation.Seal());
  // Delta maintenance: only the appended record range is re-aggregated.
  return RefreshViewsIncremental(&relation, views_, append_watermark_);
}

StatusOr<MasterRelation> ColGraphEngine::BuildTailRelation(
    const std::vector<GraphRecord>& records) {
  MasterRelation tail(options_.relation);
  for (const GraphRecord& record : records) {
    if (record.elements.size() != record.measures.size()) {
      return Status::InvalidArgument(
          "record elements/measures size mismatch for record " +
          std::to_string(record.id));
    }
    std::vector<std::pair<EdgeId, double>> shredded;
    shredded.reserve(record.elements.size());
    for (size_t i = 0; i < record.elements.size(); ++i) {
      shredded.emplace_back(catalog_.GetOrAssign(record.elements[i]),
                            record.measures[i]);
    }
    COLGRAPH_RETURN_NOT_OK(tail.AddRecord(shredded).status());
  }
  COLGRAPH_RETURN_NOT_OK(tail.Seal());
  return tail;
}

Status ColGraphEngine::AttachDataset(
    std::shared_ptr<const MasterRelation> tail) {
  if (tail == nullptr) {
    return Status::InvalidArgument("cannot attach a null tail dataset");
  }
  if (!tail->sealed() || !relation().sealed()) {
    return Status::InvalidArgument(
        "tail datasets attach to sealed relations only");
  }
  const size_t base = total_records();
  segments_.push_back({std::move(tail), base});
  return Status::OK();
}

Status ColGraphEngine::Compact() {
  if (segments_.size() == 1) return Status::OK();
  const size_t total = total_records();

  // The merged schema is the widest any segment grew (columns a segment
  // never had contribute NULL ranges).
  size_t num_columns = 0;
  for (const RelationSegment& seg : segments_) {
    num_columns = std::max(num_columns, seg.relation->num_edge_columns());
  }

  // Column-at-a-time merge, as DatasetStore::CompactAll does: records keep
  // their global ids because segments are concatenated in order.
  std::vector<MeasureColumn> cols;
  cols.reserve(num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    MeasureColumnAppender merged(total);
    for (const RelationSegment& seg : segments_) {
      const MasterRelation& rel = *seg.relation;
      merged.Append(c < rel.num_edge_columns()
                        ? &rel.PeekMeasureColumn(static_cast<EdgeId>(c))
                        : nullptr,
                    rel.num_records());
    }
    COLGRAPH_ASSIGN_OR_RETURN(
        MeasureColumn column,
        std::move(merged).Finish(options_.relation.hybrid_bitmaps));
    cols.push_back(std::move(column));
  }
  COLGRAPH_ASSIGN_OR_RETURN(
      MasterRelation merged,
      MasterRelation::FromColumns(total, std::move(cols), options_.relation));
  segments_ = {{std::make_shared<MasterRelation>(std::move(merged)), 0}};

  // Re-materialize every registered view over the merged record set: the
  // old view columns lived in the retired primary, and their bitmaps were
  // sized to it. The definitions survive; the columns are rebuilt.
  std::vector<GraphViewDef> graph_defs;
  graph_defs.reserve(views_.num_graph_views());
  for (const auto& [def, index] : views_.graph_views()) {
    (void)index;
    graph_defs.push_back(def);
  }
  std::vector<AggViewDef> agg_defs;
  agg_defs.reserve(views_.num_agg_views());
  for (const auto& [def, index] : views_.agg_views()) {
    (void)index;
    agg_defs.push_back(def);
  }
  ViewCatalog fresh;
  COLGRAPH_RETURN_NOT_OK(
      MaterializeGraphViews(graph_defs, &OwnedRelation(), &fresh, pool_.get())
          .status());
  COLGRAPH_RETURN_NOT_OK(
      MaterializeAggViews(agg_defs, &OwnedRelation(), &fresh, pool_.get())
          .status());
  views_ = std::move(fresh);
  return Status::OK();
}

StatusOr<size_t> ColGraphEngine::SelectAndMaterializeGraphViews(
    const std::vector<GraphQuery>& workload, size_t budget) {
  // Resolve each query to its (sorted) element-id universe.
  std::vector<std::vector<EdgeId>> universes;
  universes.reserve(workload.size());
  for (const GraphQuery& q : workload) {
    const QueryEngine::ResolvedQuery resolved = query_engine().Resolve(q);
    if (!resolved.satisfiable || resolved.ids.empty()) continue;
    universes.push_back(resolved.ids);
  }

  std::vector<GraphViewDef> candidates;
  if (options_.candidate_generator == CandidateGenerator::kApriori) {
    AprioriOptions apriori;
    apriori.min_support = std::max<size_t>(2, options_.view_min_support);
    apriori.pool = pool_.get();
    COLGRAPH_ASSIGN_OR_RETURN(AprioriResult mined,
                              MineFrequentItemsets(universes, apriori));
    candidates = FilterSuperseded(mined, universes).itemsets;
  } else {
    CandidateGenOptions gen;
    gen.min_support = options_.view_min_support;
    gen.pool = pool_.get();
    COLGRAPH_ASSIGN_OR_RETURN(candidates,
                              GenerateGraphViewCandidates(universes, gen));
  }
  // Views belong to segment 0: a candidate over an edge the primary has no
  // column for (one only a tail recorded) would be empty there.
  const size_t num_columns = relation().num_edge_columns();
  std::erase_if(candidates, [num_columns](const GraphViewDef& def) {
    return !def.edges.empty() && def.edges.back() >= num_columns;  // sorted
  });
  const SetCoverSelection selection =
      GreedyExtendedSetCover(universes, candidates, budget);

  // Materialize the whole selection as one batch: the per-view bitmap
  // passes fan across the pool, registration stays in selection order.
  std::vector<GraphViewDef> selected_defs;
  selected_defs.reserve(selection.selected.size());
  for (size_t index : selection.selected) {
    selected_defs.push_back(candidates[index]);
  }
  COLGRAPH_RETURN_NOT_OK(
      MaterializeGraphViews(selected_defs, &OwnedRelation(), &views_,
                            pool_.get())
          .status());
  return selected_defs.size();
}

StatusOr<size_t> ColGraphEngine::SelectAndMaterializeAggViews(
    const std::vector<GraphQuery>& workload, AggFn fn, size_t budget) {
  COLGRAPH_ASSIGN_OR_RETURN(
      std::vector<AggViewDef> selected,
      SelectAggregateViews(workload, fn, catalog_, budget,
                           relation().num_edge_columns()));
  COLGRAPH_RETURN_NOT_OK(
      MaterializeAggViews(selected, &OwnedRelation(), &views_, pool_.get())
          .status());
  return selected.size();
}

StatusOr<size_t> ColGraphEngine::MaterializeView(const GraphViewDef& def) {
  return MaterializeGraphView(def, &OwnedRelation(), &views_);
}

StatusOr<size_t> ColGraphEngine::MaterializeView(const AggViewDef& def) {
  return MaterializeAggView(def, &OwnedRelation(), &views_);
}

Bitmap ColGraphEngine::Match(const GraphQuery& query,
                             const QueryOptions& options) const {
  return query_engine().Match(query, options);
}

StatusOr<MeasureTable> ColGraphEngine::RunGraphQuery(
    const GraphQuery& query, const QueryOptions& options) const {
  return query_engine().RunGraphQuery(query, options);
}

StatusOr<PathAggResult> ColGraphEngine::RunAggregateQuery(
    const GraphQuery& query, AggFn fn, const QueryOptions& options) const {
  return query_engine().RunAggregateQuery(query, fn, options);
}

std::string ColGraphEngine::DumpMetricsJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("uptime_seconds");
  w.Uint(obs::ProcessUptimeSeconds());
  w.Key("engine");
  w.BeginObject();
  w.Key("num_records");
  w.Uint(num_records());
  w.Key("num_tail_datasets");
  w.Uint(segments_.size() - 1);
  w.Key("total_records");
  w.Uint(total_records());
  w.Key("num_edge_columns");
  w.Uint(relation().num_edge_columns());
  w.Key("num_graph_views");
  w.Uint(views_.num_graph_views());
  w.Key("num_agg_views");
  w.Uint(views_.num_agg_views());
  w.Key("num_threads");
  w.Uint(options_.num_threads);
  w.EndObject();
  w.Key("fetch_stats");
  w.BeginObject();
  const FetchStats& fs = stats();
  w.Key("bitmap_columns_fetched");
  w.Uint(fs.bitmap_columns_fetched);
  w.Key("measure_columns_fetched");
  w.Uint(fs.measure_columns_fetched);
  w.Key("values_fetched");
  w.Uint(fs.values_fetched);
  w.Key("partitions_touched");
  w.Uint(fs.partitions_touched);
  w.Key("partition_joins");
  w.Uint(fs.partition_joins);
  w.EndObject();
  w.Key("metrics");
  w.Raw(obs::MetricsRegistry::Global().ToJson());
  w.EndObject();
  return w.str();
}

}  // namespace colgraph
