#include "query/engine.h"

#include <gtest/gtest.h>

#include <cmath>

#include "views/materializer.h"

namespace colgraph {
namespace {

NodeRef N(NodeId id, uint32_t occ = 0) { return NodeRef{id, occ}; }

// Fixture: records over a line graph 1 -> 2 -> 3 -> 4 -> 5 (edge ids in
// catalog order 0:(1,2), 1:(2,3), 2:(3,4), 3:(4,5)).
//   r0: edges (1,2),(2,3)           measures 1, 2
//   r1: edges (2,3),(3,4)           measures 3, 4
//   r2: edges (1,2),(2,3),(3,4)     measures 5, 6, 7
//   r3: edges (4,5)                 measure 8
class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto add = [&](std::vector<Edge> elements, std::vector<double> measures) {
      std::vector<std::pair<EdgeId, double>> shredded;
      for (size_t i = 0; i < elements.size(); ++i) {
        shredded.emplace_back(catalog_.GetOrAssign(elements[i]), measures[i]);
      }
      ASSERT_TRUE(relation_.AddRecord(shredded).ok());
    };
    // Fix catalog order first.
    catalog_.GetOrAssign(Edge{N(1), N(2)});
    catalog_.GetOrAssign(Edge{N(2), N(3)});
    catalog_.GetOrAssign(Edge{N(3), N(4)});
    catalog_.GetOrAssign(Edge{N(4), N(5)});
    relation_.EnsureColumns(4);
    add({Edge{N(1), N(2)}, Edge{N(2), N(3)}}, {1, 2});
    add({Edge{N(2), N(3)}, Edge{N(3), N(4)}}, {3, 4});
    add({Edge{N(1), N(2)}, Edge{N(2), N(3)}, Edge{N(3), N(4)}}, {5, 6, 7});
    add({Edge{N(4), N(5)}}, {8});
    ASSERT_TRUE(relation_.Seal().ok());
  }

  QueryEngine Engine() const {
    return QueryEngine(&relation_, &catalog_, &views_);
  }

  EdgeCatalog catalog_;
  MasterRelation relation_;
  ViewCatalog views_;
};

TEST_F(QueryEngineTest, MatchSingleEdge) {
  const Bitmap m = Engine().Match(GraphQuery::FromPath({N(2), N(3)}));
  EXPECT_EQ(m.ToVector(), (std::vector<uint64_t>{0, 1, 2}));
}

TEST_F(QueryEngineTest, MatchPathIsConjunction) {
  const Bitmap m = Engine().Match(GraphQuery::FromPath({N(1), N(2), N(3), N(4)}));
  EXPECT_EQ(m.ToVector(), (std::vector<uint64_t>{2}));
}

TEST_F(QueryEngineTest, MatchUnknownEdgeIsEmpty) {
  const Bitmap m = Engine().Match(GraphQuery::FromPath({N(9), N(10)}));
  EXPECT_TRUE(m.None());
}

TEST_F(QueryEngineTest, MatchIsolatedNodeWithoutMeasureUnconstrained) {
  // Node 2 never carries its own measure column; a query on just that node
  // is unconstrained and matches everything.
  DirectedGraph g;
  g.AddNode(N(2));
  const Bitmap m = Engine().Match(GraphQuery(std::move(g)));
  EXPECT_EQ(m.Count(), relation_.num_records());
}

TEST_F(QueryEngineTest, LogicalCombinators) {
  QueryEngine engine = Engine();
  const Bitmap a = engine.Match(GraphQuery::FromPath({N(1), N(2)}));  // 0,2
  const Bitmap b = engine.Match(GraphQuery::FromPath({N(3), N(4)}));  // 1,2
  EXPECT_EQ(QueryEngine::AndSets(a, b).ToVector(),
            (std::vector<uint64_t>{2}));
  EXPECT_EQ(QueryEngine::OrSets(a, b).ToVector(),
            (std::vector<uint64_t>{0, 1, 2}));
  EXPECT_EQ(QueryEngine::AndNotSets(a, b).ToVector(),
            (std::vector<uint64_t>{0}));
}

TEST_F(QueryEngineTest, RunGraphQueryFetchesMeasures) {
  const auto result = Engine().RunGraphQuery(
      GraphQuery::FromPath({N(1), N(2), N(3)}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->records, (std::vector<RecordId>{0, 2}));
  ASSERT_EQ(result->columns.size(), 2u);
  // Edge (1,2) = id 0, edge (2,3) = id 1.
  EXPECT_EQ(result->columns[0], (std::vector<double>{1, 5}));
  EXPECT_EQ(result->columns[1], (std::vector<double>{2, 6}));
}

TEST_F(QueryEngineTest, RunGraphQueryUnsatisfiableIsEmpty) {
  const auto result =
      Engine().RunGraphQuery(GraphQuery::FromPath({N(1), N(99)}));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->records.empty());
}

TEST_F(QueryEngineTest, MatchPlanUsesBudgetedBitmapCount) {
  QueryEngine engine = Engine();
  relation_.stats().Reset();
  engine.Match(GraphQuery::FromPath({N(1), N(2), N(3), N(4)}));
  // No views: 3 edge bitmaps fetched.
  EXPECT_EQ(relation_.stats().bitmap_columns_fetched, 3u);

  // Materialize the 3-edge view; re-running should fetch exactly 1 bitmap.
  ASSERT_TRUE(
      MaterializeGraphView(GraphViewDef::Make({0, 1, 2}), &relation_, &views_)
          .ok());
  relation_.stats().Reset();
  const Bitmap with_views =
      engine.Match(GraphQuery::FromPath({N(1), N(2), N(3), N(4)}));
  EXPECT_EQ(relation_.stats().bitmap_columns_fetched, 1u);
  EXPECT_EQ(with_views.ToVector(), (std::vector<uint64_t>{2}));
}

TEST_F(QueryEngineTest, ViewObliviousOptionIgnoresViews) {
  QueryEngine engine = Engine();
  ASSERT_TRUE(
      MaterializeGraphView(GraphViewDef::Make({0, 1, 2}), &relation_, &views_)
          .ok());
  QueryOptions oblivious;
  oblivious.use_views = false;
  relation_.stats().Reset();
  engine.Match(GraphQuery::FromPath({N(1), N(2), N(3), N(4)}), oblivious);
  EXPECT_EQ(relation_.stats().bitmap_columns_fetched, 3u);
}

TEST_F(QueryEngineTest, AnswersIdenticalWithAndWithoutViews) {
  QueryEngine engine = Engine();
  ASSERT_TRUE(
      MaterializeGraphView(GraphViewDef::Make({0, 1}), &relation_, &views_)
          .ok());
  QueryOptions no_views;
  no_views.use_views = false;
  const GraphQuery q = GraphQuery::FromPath({N(1), N(2), N(3), N(4)});
  const auto with = engine.RunGraphQuery(q);
  const auto without = engine.RunGraphQuery(q, no_views);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(with->records, without->records);
  EXPECT_EQ(with->columns, without->columns);
}

TEST_F(QueryEngineTest, FetchMeasuresNullsAsNaN) {
  QueryEngine engine = Engine();
  Bitmap matches(relation_.num_records());
  matches.Set(3);  // r3 has only edge id 3
  const MeasureTable table = engine.FetchMeasures(matches, {0, 3});
  ASSERT_EQ(table.columns[0].size(), 1u);
  EXPECT_TRUE(std::isnan(table.columns[0][0]));
  EXPECT_EQ(table.columns[1][0], 8.0);
}

// FetchMeasures is public and takes any bitmap. One longer than the record
// domain would send the gather past the presence words, so it is refused
// at entry — in every build, not only where DCHECKs are compiled in.
using QueryEngineDeathTest = QueryEngineTest;

TEST_F(QueryEngineDeathTest, FetchMeasuresRejectsMatchesPastTheRecords) {
  QueryEngine engine = Engine();
  Bitmap matches(4096);
  matches.Set(4000);
  EXPECT_DEATH((void)engine.FetchMeasures(matches, {0, 1}), "Check failed");
}

// --- Vertical partitioning (Section 6.1 / Figure 5). ---

TEST(PartitionedFetchTest, CrossPartitionJoinCountsAndAnswers) {
  MasterRelationOptions options;
  options.partition_width = 2;  // columns {0,1} | {2,3} | {4,5}
  MasterRelation rel(options);
  EdgeCatalog catalog;
  ViewCatalog views;
  ASSERT_TRUE(rel.AddRecord({{0, 1.0}, {2, 2.0}, {4, 3.0}}).ok());
  ASSERT_TRUE(rel.AddRecord({{0, 4.0}, {2, 5.0}, {4, 6.0}}).ok());
  rel.EnsureColumns(6);
  ASSERT_TRUE(rel.Seal().ok());
  QueryEngine engine(&rel, &catalog, &views);

  Bitmap matches(rel.num_records());
  matches.Fill();
  rel.stats().Reset();
  const MeasureTable table = engine.FetchMeasures(matches, {0, 2, 4});
  EXPECT_EQ(rel.stats().partitions_touched, 3u);
  EXPECT_EQ(rel.stats().partition_joins, 2u);
  EXPECT_EQ(table.columns[0], (std::vector<double>{1.0, 4.0}));
  EXPECT_EQ(table.columns[1], (std::vector<double>{2.0, 5.0}));
  EXPECT_EQ(table.columns[2], (std::vector<double>{3.0, 6.0}));
}

TEST(PartitionedFetchTest, SinglePartitionNeedsNoJoin) {
  MasterRelationOptions options;
  options.partition_width = 10;
  MasterRelation rel(options);
  EdgeCatalog catalog;
  ViewCatalog views;
  ASSERT_TRUE(rel.AddRecord({{0, 1.0}, {1, 2.0}}).ok());
  ASSERT_TRUE(rel.Seal().ok());
  QueryEngine engine(&rel, &catalog, &views);
  Bitmap matches(1);
  matches.Fill();
  rel.stats().Reset();
  engine.FetchMeasures(matches, {0, 1});
  EXPECT_EQ(rel.stats().partition_joins, 0u);
}

}  // namespace
}  // namespace colgraph
