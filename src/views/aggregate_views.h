// Selection of aggregate graph views (Section 5.4): converts candidate
// paths into view definitions and runs the shared greedy extended set
// cover, with the benefit of a view proportional to the number of
// (uncovered) path elements it replaces — the paper's length-proportional
// cost model.
#pragma once

#include <limits>
#include <vector>

#include "graph/catalog.h"
#include "graph/graph.h"
#include "graph/path.h"
#include "query/agg_fn.h"
#include "util/status.h"
#include "views/view_defs.h"

namespace colgraph {

/// \brief Maps a path to an aggregate-view definition via the edge catalog.
///
/// Path elements without a catalog entry (e.g. nodes for which the
/// application records no measure) carry no column and are skipped; a path
/// reduced below 2 elements is rejected (nothing to pre-aggregate).
StatusOr<AggViewDef> AggViewDefFromPath(const Path& path, AggFn fn,
                                        const EdgeCatalog& catalog);

/// \brief End-to-end aggregate-view selection for a workload.
///
/// 1. extracts the maximal paths of each query graph,
/// 2. generates candidate paths between interesting nodes of G_All,
/// 3. greedily selects at most `budget` views maximizing the number of
///    covered path elements across the workload.
///
/// Candidates over an element id at or above `num_edge_columns` (one the
/// relation the views are built on has no column for) are dropped before
/// the cover. Returns the selected definitions (ready for
/// MaterializeAggView).
StatusOr<std::vector<AggViewDef>> SelectAggregateViews(
    const std::vector<GraphQuery>& workload, AggFn fn,
    const EdgeCatalog& catalog, size_t budget,
    size_t num_edge_columns = std::numeric_limits<size_t>::max());

}  // namespace colgraph
