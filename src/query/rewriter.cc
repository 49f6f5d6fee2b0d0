#include "query/rewriter.h"

#include <algorithm>
#include <map>

#include "views/set_cover.h"

namespace colgraph {

MatchPlan PlanMatch(const std::vector<EdgeId>& query_edge_ids,
                    const ViewCatalog* views, bool consider_agg_bitmaps) {
  std::vector<EdgeId> sorted_edges = query_edge_ids;
  std::sort(sorted_edges.begin(), sorted_edges.end());
  sorted_edges.erase(std::unique(sorted_edges.begin(), sorted_edges.end()),
                     sorted_edges.end());
  MatchPlan plan;
  // Fast path: with no materialized views the plan is one bitmap per edge;
  // skip the set-cover machinery entirely.
  if (views == nullptr ||
      (views->num_graph_views() == 0 &&
       (!consider_agg_bitmaps || views->num_agg_views() == 0))) {
    plan.sources.reserve(sorted_edges.size());
    for (EdgeId e : sorted_edges) {
      plan.sources.push_back(BitmapSource{BitmapSource::Kind::kEdge, e});
    }
    return plan;
  }
  // The usable view bitmaps: graph views, optionally the bp bitmaps of
  // aggregate views — both are just bitmap columns over the same records.
  std::vector<GraphViewDef> cover_sets;
  std::vector<BitmapSource> cover_sources;
  for (const auto& [def, column] : views->graph_views()) {
    cover_sets.push_back(def);
    cover_sources.push_back(
        BitmapSource{BitmapSource::Kind::kGraphView, column});
  }
  if (consider_agg_bitmaps) {
    for (const auto& [def, column] : views->agg_views()) {
      cover_sets.push_back(GraphViewDef::Make(def.elements));
      cover_sources.push_back(
          BitmapSource{BitmapSource::Kind::kAggViewBitmap, column});
    }
  }
  const QueryCover cover = CoverQueryWithViews(sorted_edges, cover_sets);
  for (size_t v : cover.view_indexes) {
    plan.sources.push_back(cover_sources[v]);
  }
  for (EdgeId e : cover.residual_edges) {
    plan.sources.push_back(BitmapSource{BitmapSource::Kind::kEdge, e});
  }
  return plan;
}

PathPlan PlanPathAggregation(const std::vector<EdgeId>& path_elements,
                             AggFn fn, const ViewCatalog* views) {
  // Index compatible views by their first element, longest first, so the
  // left-to-right scan can take the longest match at each position.
  std::map<EdgeId, std::vector<std::pair<const AggViewDef*, size_t>>> by_first;
  if (views != nullptr) {
    for (const auto& [def, column] : views->agg_views()) {
      if (def.fn != fn) continue;
      if (def.elements.empty()) continue;
      by_first[def.elements.front()].emplace_back(&def, column);
    }
    for (auto& [first, list] : by_first) {
      (void)first;
      std::sort(list.begin(), list.end(),
                [](const auto& a, const auto& b) {
                  return a.first->elements.size() > b.first->elements.size();
                });
    }
  }

  PathPlan plan;
  size_t i = 0;
  while (i < path_elements.size()) {
    const PathSegment* matched = nullptr;
    PathSegment candidate;
    auto it = by_first.find(path_elements[i]);
    if (it != by_first.end()) {
      for (const auto& [def, column] : it->second) {
        const size_t len = def->elements.size();
        if (i + len > path_elements.size()) continue;
        if (std::equal(def->elements.begin(), def->elements.end(),
                       path_elements.begin() + static_cast<long>(i))) {
          candidate.is_view = true;
          candidate.agg_view_column = column;
          candidate.num_elements = len;
          matched = &candidate;
          break;  // longest-first order: first hit is the longest
        }
      }
    }
    if (matched != nullptr) {
      plan.segments.push_back(candidate);
      i += candidate.num_elements;
    } else {
      PathSegment atom;
      atom.is_view = false;
      atom.atom = path_elements[i];
      atom.num_elements = 1;
      plan.segments.push_back(atom);
      ++i;
    }
  }
  return plan;
}

}  // namespace colgraph
