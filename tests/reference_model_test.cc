// Reference-model cross-validation: a deliberately naive, obviously-correct
// implementation of matching and path aggregation over raw GraphRecords,
// compared against the bitmap/column engine on randomized workloads — with
// and without materialized views, and in every storage layout: one
// relation, a primary plus tail datasets (some query edges recorded only
// in the tails), and that split compacted back into one relation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>

#include "core/engine.h"
#include "graph/path.h"
#include "query/expr.h"
#include "workload/base_graphs.h"
#include "workload/query_generator.h"
#include "workload/record_generator.h"

namespace colgraph {
namespace {

// Naive matcher: a record matches iff it contains every query edge.
std::vector<RecordId> NaiveMatch(const std::vector<GraphRecord>& records,
                                 const GraphQuery& query) {
  std::vector<RecordId> matches;
  for (const GraphRecord& r : records) {
    const std::set<Edge> edges(r.elements.begin(), r.elements.end());
    const bool ok = std::all_of(
        query.graph().edges().begin(), query.graph().edges().end(),
        [&](const Edge& e) { return edges.count(e) > 0; });
    if (ok) matches.push_back(r.id);
  }
  return matches;
}

// Naive measure lookup: the record's measure on `e`, if it has one.
std::optional<double> NaiveMeasure(const GraphRecord& record, const Edge& e) {
  for (size_t i = 0; i < record.elements.size(); ++i) {
    if (record.elements[i] == e) return record.measures[i];
  }
  return std::nullopt;
}

// Naive path aggregation: look up each element's measure in the record.
double NaiveAggregate(const GraphRecord& record, const Path& path, AggFn fn) {
  AggAccumulator acc(fn);
  for (const Edge& e : path.Elements()) {
    const std::optional<double> m = NaiveMeasure(record, e);
    if (m.has_value()) acc.Add(*m);
  }
  return acc.Result();
}

std::vector<RecordId> Ids(const Bitmap& bits) {
  std::vector<RecordId> ids;
  bits.AppendSetBits(&ids);
  return ids;
}

enum class Layout : uint8_t { kSingle, kTails, kCompacted };
enum class Views : uint8_t { kNone, kGraph, kAgg };

struct LayoutCase {
  Layout layout;
  uint64_t seed;
};
// Test names carry the seed; the instantiation name carries the layout.
void PrintTo(const LayoutCase& c, std::ostream* os) { *os << c.seed; }

class ReferenceModelTest : public ::testing::TestWithParam<LayoutCase> {
 protected:
  static constexpr size_t kNumTails = 3;
  // The first edge of each of this many workload queries is recorded only
  // by tail datasets in the tails layout.
  static constexpr size_t kTailOnlyQueries = 3;

  void SetUp() override {
    const uint64_t seed = GetParam().seed;
    const DirectedGraph base = MakeRoadNetwork(18, 18);
    auto universe = SelectEdgeUniverse(base, 250, seed);
    ASSERT_TRUE(universe.ok());
    universe_ = std::move(universe).value();
    RecordGenOptions options;
    options.min_edges = 8;
    options.max_edges = 30;
    WalkRecordGenerator generator(&universe_, options, seed + 1);
    for (int i = 0; i < 250; ++i) {
      std::vector<NodeRef> trunk;
      records_.push_back(generator.Next(&trunk));
      trunks_.push_back(std::move(trunk));
    }
    QueryGenerator qgen(&trunks_, &universe_, seed + 2);
    QueryGenOptions q_options;
    q_options.min_edges = 2;
    q_options.max_edges = 9;
    workload_ = qgen.UniformWorkload(20, q_options);

    // Every layout stores the same collection in the same order: records
    // without a tail-only edge first, so the primary can hold only them.
    std::set<Edge> tail_only;
    for (size_t q = 0; q < kTailOnlyQueries; ++q) {
      tail_only.insert(workload_[q].graph().edges().front());
    }
    const auto clean = [&](const GraphRecord& r) {
      return std::none_of(r.elements.begin(), r.elements.end(),
                          [&](const Edge& e) { return tail_only.count(e); });
    };
    const auto first_dirty =
        std::stable_partition(records_.begin(), records_.end(), clean);
    num_primary_ = std::min<size_t>(
        static_cast<size_t>(first_dirty - records_.begin()),
        records_.size() / 2);
    ASSERT_GT(num_primary_, 0u);
    ASSERT_NE(first_dirty, records_.end());
    for (size_t i = 0; i < records_.size(); ++i) records_[i].id = i;
  }

  // The engine for this test's layout. Views are selected from the
  // workload and materialized over the primary before tails attach, as a
  // serving daemon does; Compact() re-materializes them over the merge.
  ColGraphEngine Build(Views views) const {
    const Layout layout = GetParam().layout;
    ColGraphEngine engine;
    const size_t primary =
        layout == Layout::kSingle ? records_.size() : num_primary_;
    for (size_t i = 0; i < primary; ++i) {
      COLGRAPH_CHECK(engine.AddRecord(records_[i]).ok());
    }
    COLGRAPH_CHECK_OK(engine.Seal());
    if (views == Views::kGraph) {
      COLGRAPH_CHECK(engine.SelectAndMaterializeGraphViews(workload_, 10).ok());
    } else if (views == Views::kAgg) {
      COLGRAPH_CHECK(
          engine.SelectAndMaterializeAggViews(workload_, AggFn::kSum, 10).ok());
    }
    if (layout == Layout::kSingle) return engine;
    const size_t chunk = (records_.size() - primary + kNumTails - 1) / kNumTails;
    for (size_t begin = primary; begin < records_.size(); begin += chunk) {
      const size_t end = std::min(records_.size(), begin + chunk);
      auto tail = engine.BuildTailRelation(
          std::vector<GraphRecord>(records_.begin() + static_cast<long>(begin),
                                   records_.begin() + static_cast<long>(end)));
      COLGRAPH_CHECK_OK(tail.status());
      COLGRAPH_CHECK_OK(engine.AttachDataset(
          std::make_shared<const MasterRelation>(std::move(tail).value())));
    }
    COLGRAPH_CHECK_EQ(engine.total_records(), records_.size());
    if (layout == Layout::kCompacted) COLGRAPH_CHECK_OK(engine.Compact());
    return engine;
  }

  void ExpectAggregatesAgree(const ColGraphEngine& engine, AggFn fn) const {
    for (const GraphQuery& q : workload_) {
      auto result = engine.RunAggregateQuery(q, fn);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->records, NaiveMatch(records_, q));
      for (size_t p = 0; p < result->paths.size(); ++p) {
        for (size_t r = 0; r < result->records.size(); ++r) {
          const double expected = NaiveAggregate(
              records_[result->records[r]], result->paths[p], fn);
          EXPECT_NEAR(result->values[p][r], expected,
                      1e-9 * (1.0 + std::abs(expected)))
              << AggFnName(fn);
        }
      }
    }
  }

  DirectedGraph universe_;
  std::vector<GraphRecord> records_;
  std::vector<std::vector<NodeRef>> trunks_;
  std::vector<GraphQuery> workload_;
  size_t num_primary_ = 0;
};

TEST_P(ReferenceModelTest, MatchingAgreesWithNaiveScan) {
  const ColGraphEngine engine = Build(Views::kNone);
  for (const GraphQuery& q : workload_) {
    EXPECT_EQ(Ids(engine.Match(q)), NaiveMatch(records_, q));
  }
}

TEST_P(ReferenceModelTest, MatchingAgreesAfterViewMaterialization) {
  const ColGraphEngine engine = Build(Views::kGraph);
  ASSERT_GT(engine.views().num_graph_views(), 0u);
  for (const GraphQuery& q : workload_) {
    EXPECT_EQ(Ids(engine.Match(q)), NaiveMatch(records_, q));
  }
}

TEST_P(ReferenceModelTest, AggregationAgreesWithNaiveFold) {
  const ColGraphEngine engine = Build(Views::kNone);
  for (AggFn fn : {AggFn::kSum, AggFn::kMin, AggFn::kMax, AggFn::kAvg}) {
    ExpectAggregatesAgree(engine, fn);
  }
}

TEST_P(ReferenceModelTest, AggregationAgreesWithViewsMaterialized) {
  const ColGraphEngine engine = Build(Views::kAgg);
  ASSERT_GT(engine.views().num_agg_views(), 0u);
  ExpectAggregatesAgree(engine, AggFn::kSum);
}

// Set algebra over adjacent workload queries, against the naive sets.
TEST_P(ReferenceModelTest, QueryExprAgreesWithNaiveSets) {
  for (const Views views : {Views::kNone, Views::kGraph}) {
    const ColGraphEngine engine = Build(views);
    const QueryEngine qe = engine.query_engine();
    for (size_t i = 0; i + 1 < workload_.size(); ++i) {
      const GraphQuery& a = workload_[i];
      const GraphQuery& b = workload_[i + 1];
      const std::vector<RecordId> na = NaiveMatch(records_, a);
      const std::vector<RecordId> nb = NaiveMatch(records_, b);
      std::vector<RecordId> want_and, want_or, want_and_not;
      std::set_intersection(na.begin(), na.end(), nb.begin(), nb.end(),
                            std::back_inserter(want_and));
      std::set_union(na.begin(), na.end(), nb.begin(), nb.end(),
                     std::back_inserter(want_or));
      std::set_difference(na.begin(), na.end(), nb.begin(), nb.end(),
                          std::back_inserter(want_and_not));
      const auto la = QueryExpr::Leaf(a);
      const auto lb = QueryExpr::Leaf(b);
      EXPECT_EQ(Ids(QueryExpr::And(la, lb)->Evaluate(qe)), want_and);
      EXPECT_EQ(Ids(QueryExpr::Or(la, lb)->Evaluate(qe)), want_or);
      EXPECT_EQ(Ids(QueryExpr::AndNot(la, lb)->Evaluate(qe)), want_and_not);
    }
  }
}

// A graph query's table holds, for every matching record, its measure on
// every query edge.
TEST_P(ReferenceModelTest, GraphQueryTablesAgreeWithNaiveMeasures) {
  for (const Views views : {Views::kNone, Views::kGraph}) {
    const ColGraphEngine engine = Build(views);
    for (const GraphQuery& q : workload_) {
      const auto table = engine.RunGraphQuery(q);
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      ASSERT_EQ(table->records, NaiveMatch(records_, q));
      ASSERT_EQ(table->columns.size(), table->edges.size());
      for (size_t c = 0; c < table->edges.size(); ++c) {
        const Edge& e = engine.catalog().edge(table->edges[c]);
        for (size_t r = 0; r < table->num_rows(); ++r) {
          const std::optional<double> want =
              NaiveMeasure(records_[table->records[r]], e);
          ASSERT_TRUE(want.has_value());
          EXPECT_EQ(table->columns[c][r], *want);
        }
      }
    }
  }
}

// EXPLAIN counts every match, in every segment.
TEST_P(ReferenceModelTest, ExplainCountsEveryMatch) {
  for (const Views views : {Views::kNone, Views::kGraph, Views::kAgg}) {
    const ColGraphEngine engine = Build(views);
    for (const GraphQuery& q : workload_) {
      const size_t want = NaiveMatch(records_, q).size();
      EXPECT_EQ(engine.Explain(q).matched_records, want);
      EXPECT_EQ(engine.ExplainAggregate(q, AggFn::kSum).matched_records, want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceModelTest,
                         ::testing::Values(LayoutCase{Layout::kSingle, 11},
                                           LayoutCase{Layout::kSingle, 23},
                                           LayoutCase{Layout::kSingle, 47},
                                           LayoutCase{Layout::kSingle, 89}));
INSTANTIATE_TEST_SUITE_P(Tails, ReferenceModelTest,
                         ::testing::Values(LayoutCase{Layout::kTails, 11},
                                           LayoutCase{Layout::kTails, 23},
                                           LayoutCase{Layout::kTails, 47},
                                           LayoutCase{Layout::kTails, 89}));
INSTANTIATE_TEST_SUITE_P(Compacted, ReferenceModelTest,
                         ::testing::Values(LayoutCase{Layout::kCompacted, 11},
                                           LayoutCase{Layout::kCompacted, 23},
                                           LayoutCase{Layout::kCompacted, 47},
                                           LayoutCase{Layout::kCompacted, 89}));

}  // namespace
}  // namespace colgraph
