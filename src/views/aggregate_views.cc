#include "views/aggregate_views.h"

#include <algorithm>
#include <set>

#include "views/candidate_generation.h"
#include "views/set_cover.h"

namespace colgraph {

StatusOr<AggViewDef> AggViewDefFromPath(const Path& path, AggFn fn,
                                        const EdgeCatalog& catalog) {
  AggViewDef def;
  def.fn = fn;
  for (const Edge& element : path.Elements()) {
    const auto id = catalog.Lookup(element);
    if (id.has_value()) def.elements.push_back(*id);
  }
  if (def.elements.size() < 2) {
    return Status::InvalidArgument(
        "path " + path.ToString() +
        " has fewer than two measured elements; not a useful aggregate view");
  }
  return def;
}

StatusOr<std::vector<AggViewDef>> SelectAggregateViews(
    const std::vector<GraphQuery>& workload, AggFn fn,
    const EdgeCatalog& catalog, size_t budget, size_t num_edge_columns) {
  // 1. Maximal paths per query.
  std::vector<std::vector<Path>> maximal_paths;
  maximal_paths.reserve(workload.size());
  for (const GraphQuery& q : workload) {
    COLGRAPH_ASSIGN_OR_RETURN(std::vector<Path> paths,
                              MaximalPaths(q.graph()));
    maximal_paths.push_back(std::move(paths));
  }

  // 2. Candidate paths between interesting nodes of G_All.
  COLGRAPH_ASSIGN_OR_RETURN(std::vector<Path> candidate_paths,
                            GenerateAggViewCandidatePaths(maximal_paths));

  // 3. Convert to definitions; drop paths without enough measured elements
  // and paths over an element the relation has no column for.
  std::vector<AggViewDef> defs;
  std::vector<GraphViewDef> cover_sets;  // sorted element sets for the greedy
  for (const Path& p : candidate_paths) {
    auto def = AggViewDefFromPath(p, fn, catalog);
    if (!def.ok() ||
        std::any_of(def->elements.begin(), def->elements.end(),
                    [num_edge_columns](EdgeId id) {
                      return id >= num_edge_columns;
                    })) {
      continue;
    }
    cover_sets.push_back(GraphViewDef::Make(def->elements));
    defs.push_back(std::move(def).value());
  }

  // Universes: the measured elements of each query's maximal paths.
  std::vector<std::vector<EdgeId>> universes;
  universes.reserve(workload.size());
  for (const auto& paths : maximal_paths) {
    std::set<EdgeId> elements;
    for (const Path& p : paths) {
      for (const Edge& e : p.Elements()) {
        const auto id = catalog.Lookup(e);
        if (id.has_value()) elements.insert(*id);
      }
    }
    universes.emplace_back(elements.begin(), elements.end());
  }

  const SetCoverSelection selection =
      GreedyExtendedSetCover(universes, cover_sets, budget);

  std::vector<AggViewDef> selected;
  selected.reserve(selection.selected.size());
  for (size_t index : selection.selected) selected.push_back(defs[index]);
  return selected;
}

}  // namespace colgraph
