// The physical layout of a relation must not change what a fetch or a fold
// returns, nor what it is charged. One collection of records is stored
// four ways — one relation, one relation cut into several vertical
// partitions, a primary plus tail datasets, and that split compacted back
// into one relation — and every graph query (match + fetch), every direct
// FetchMeasures and every path aggregation must give byte-identical
// results in all four. The FetchStats charged for a fetch follow the
// layout's accounting rule (one partition visit per sub-relation or
// touched segment, p-1 recid joins across p partitions), and a fold is
// charged the same values in every layout. One record stores a NaN
// measure: a SUM along its path stays NaN instead of skipping it as NULL.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "graph/flatten.h"
#include "util/random.h"

namespace colgraph {
namespace {

NodeRef N(NodeId id) { return NodeRef{id, 0}; }

constexpr size_t kPartitionWidth = 3;
constexpr size_t kNumWalks = 240;
constexpr size_t kNumTails = 3;
// Records whose first hop stores NaN: one in the primary chunk, one in a
// tail.
constexpr size_t kNanWalks[] = {17, 201};

bool SameBits(double a, double b) {
  uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(a));
  std::memcpy(&ub, &b, sizeof(b));
  return ua == ub;
}

bool SameBits(const std::vector<std::vector<double>>& a,
              const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (!SameBits(a[i][j], b[i][j])) return false;
    }
  }
  return true;
}

std::vector<std::vector<NodeId>> MakeWalks() {
  Rng rng(20261017);
  std::vector<std::vector<NodeId>> walks;
  for (size_t i = 0; i < kNumWalks; ++i) {
    std::vector<NodeId> walk;
    const size_t hops = 2 + rng.Uniform(0, 4);
    for (size_t h = 0; h <= hops; ++h) {
      walk.push_back(static_cast<NodeId>(rng.Uniform(1, 9)));
    }
    walks.push_back(std::move(walk));
  }
  // The NaN records are acyclic, so each matches its own 3-node prefix.
  walks[kNanWalks[0]] = {2, 3, 4, 5};
  walks[kNanWalks[1]] = {7, 8, 9};
  return walks;
}

std::vector<double> MeasuresFor(const std::vector<NodeId>& walk, size_t i) {
  std::vector<double> m;
  for (size_t h = 0; h + 1 < walk.size(); ++h) {
    m.push_back(0.5 * static_cast<double>(h + 1) + static_cast<double>(i % 11));
  }
  for (const size_t nan_walk : kNanWalks) {
    if (i == nan_walk) m[0] = std::numeric_limits<double>::quiet_NaN();
  }
  return m;
}

ColGraphEngine BuildSingle(const std::vector<std::vector<NodeId>>& walks,
                           size_t partition_width) {
  EngineOptions options;
  options.relation.partition_width = partition_width;
  ColGraphEngine engine(options);
  for (size_t i = 0; i < walks.size(); ++i) {
    COLGRAPH_CHECK(engine.AddWalk(walks[i], MeasuresFor(walks[i], i)).ok());
  }
  COLGRAPH_CHECK_OK(engine.Seal());
  return engine;
}

ColGraphEngine BuildSplit(const std::vector<std::vector<NodeId>>& walks) {
  const size_t chunk = walks.size() / (kNumTails + 1);
  ColGraphEngine engine;
  for (size_t i = 0; i < chunk; ++i) {
    COLGRAPH_CHECK(engine.AddWalk(walks[i], MeasuresFor(walks[i], i)).ok());
  }
  COLGRAPH_CHECK_OK(engine.Seal());
  for (size_t t = 0; t < kNumTails; ++t) {
    std::vector<GraphRecord> records;
    const size_t begin = chunk * (t + 1);
    const size_t end = t + 1 == kNumTails ? walks.size() : chunk * (t + 2);
    for (size_t i = begin; i < end; ++i) {
      GraphRecord record;
      record.elements = WalkToEdges(walks[i]);
      record.measures = MeasuresFor(walks[i], i);
      records.push_back(std::move(record));
    }
    auto tail = engine.BuildTailRelation(records);
    COLGRAPH_CHECK_OK(tail.status());
    COLGRAPH_CHECK_OK(engine.AttachDataset(
        std::make_shared<const MasterRelation>(std::move(tail).value())));
  }
  return engine;
}

// Every ordered node pair, plus the 3- and 4-node prefixes of the walks
// (the NaN walks among them).
std::vector<GraphQuery> MakeWorkload(
    const std::vector<std::vector<NodeId>>& walks) {
  std::vector<GraphQuery> queries;
  for (NodeId a = 1; a <= 9; ++a) {
    for (NodeId b = 1; b <= 9; ++b) {
      if (a != b) queries.push_back(GraphQuery::FromPath({N(a), N(b)}));
    }
  }
  for (size_t i = 0; i < walks.size(); i += 5) {
    for (const size_t len : {size_t{3}, size_t{4}}) {
      if (walks[i].size() < len) continue;
      // Path aggregation needs a DAG: skip prefixes that revisit a node.
      std::vector<NodeRef> path;
      std::set<NodeId> distinct;
      for (size_t h = 0; h < len; ++h) {
        path.push_back(N(walks[i][h]));
        distinct.insert(walks[i][h]);
      }
      if (distinct.size() < len) continue;
      queries.push_back(GraphQuery::FromPath(path));
    }
  }
  for (const size_t i : kNanWalks) {
    queries.push_back(
        GraphQuery::FromPath({N(walks[i][0]), N(walks[i][1]), N(walks[i][2])}));
  }
  return queries;
}

struct StatsDelta {
  uint64_t values_fetched = 0;
  uint64_t measure_columns_fetched = 0;
  uint64_t partitions_touched = 0;
  uint64_t partition_joins = 0;

  bool operator==(const StatsDelta& o) const {
    return values_fetched == o.values_fetched &&
           measure_columns_fetched == o.measure_columns_fetched &&
           partitions_touched == o.partitions_touched &&
           partition_joins == o.partition_joins;
  }
};

std::ostream& operator<<(std::ostream& os, const StatsDelta& d) {
  return os << "{values " << d.values_fetched << ", columns "
            << d.measure_columns_fetched << ", partitions "
            << d.partitions_touched << ", joins " << d.partition_joins << "}";
}

StatsDelta Snapshot(const ColGraphEngine& engine) {
  const FetchStats& s = engine.stats();
  return {s.values_fetched, s.measure_columns_fetched, s.partitions_touched,
          s.partition_joins};
}

StatsDelta Minus(const StatsDelta& after, const StatsDelta& before) {
  return {after.values_fetched - before.values_fetched,
          after.measure_columns_fetched - before.measure_columns_fetched,
          after.partitions_touched - before.partitions_touched,
          after.partition_joins - before.partition_joins};
}

enum class Layout { kSingle, kPartitioned, kTails, kCompacted };

const char* Name(Layout layout) {
  switch (layout) {
    case Layout::kSingle:
      return "single relation";
    case Layout::kPartitioned:
      return "vertical partitions";
    case Layout::kTails:
      return "primary + tails";
    case Layout::kCompacted:
      return "compacted";
  }
  return "?";
}

// The FetchStats a FetchMeasures of `table` must charge under `layout`
// (the engine's counters, which every segment's fetches are charged to).
StatsDelta ExpectedFetchDelta(Layout layout, const ColGraphEngine& engine,
                              const MeasureTable& table) {
  const size_t n = table.records.size();
  const size_t k = table.edges.size();
  StatsDelta d;
  if (n == 0) return d;
  d.values_fetched = n * k;
  if (layout == Layout::kTails) {
    // One visit per segment owning a row. A segment reads (and is charged
    // for) only the columns it has; the others stay NULL for its rows.
    // Every segment's column fetches count in the engine's stats.
    std::vector<const MasterRelation*> segments = {&engine.relation()};
    for (const auto& tail : engine.tails()) segments.push_back(tail.get());
    d.values_fetched = 0;
    size_t base = 0;
    for (size_t s = 0; s < segments.size(); ++s) {
      const size_t end = base + segments[s]->num_records();
      size_t rows = 0;
      for (const RecordId r : table.records) rows += r >= base && r < end;
      base = end;
      if (rows == 0) continue;
      size_t columns = 0;
      for (const EdgeId e : table.edges) {
        columns += e < segments[s]->num_edge_columns();
      }
      ++d.partitions_touched;
      d.values_fetched += rows * columns;
      d.measure_columns_fetched += columns;
    }
    return d;
  }
  d.measure_columns_fetched = k;
  if (layout != Layout::kPartitioned) {
    d.partitions_touched = k > 0 ? 1 : 0;
    return d;
  }
  std::set<size_t> partitions;
  for (const EdgeId e : table.edges) partitions.insert(e / kPartitionWidth);
  d.partitions_touched = partitions.size();
  d.partition_joins = partitions.size() > 1 ? partitions.size() - 1 : 0;
  return d;
}

class FetchLayoutTest : public ::testing::Test {
 protected:
  void SetUp() override {
    walks_ = MakeWalks();
    engines_.push_back(BuildSingle(walks_, 1000));
    engines_.push_back(BuildSingle(walks_, kPartitionWidth));
    engines_.push_back(BuildSplit(walks_));
    engines_.push_back(BuildSplit(walks_));
    ASSERT_EQ(engines_[2].tails().size(), kNumTails);
    ASSERT_TRUE(engines_[3].Compact().ok());
    ASSERT_TRUE(engines_[3].tails().empty());
    ASSERT_GT(engines_[1].relation().CountPartitions(AllEdges()), 3u);
  }

  std::vector<EdgeId> AllEdges() const {
    std::vector<EdgeId> ids;
    for (EdgeId e = 0; e < engines_[0].relation().num_edge_columns(); ++e) {
      ids.push_back(e);
    }
    return ids;
  }

  static constexpr Layout kLayouts[] = {Layout::kSingle, Layout::kPartitioned,
                                        Layout::kTails, Layout::kCompacted};

  std::vector<std::vector<NodeId>> walks_;
  std::vector<ColGraphEngine> engines_;
};

TEST_F(FetchLayoutTest, GraphQueriesAreByteIdenticalAndChargedByLayout) {
  for (const GraphQuery& q : MakeWorkload(walks_)) {
    const auto want = engines_[0].RunGraphQuery(q);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    for (size_t l = 0; l < engines_.size(); ++l) {
      SCOPED_TRACE(Name(kLayouts[l]));
      const StatsDelta before = Snapshot(engines_[l]);
      const auto got = engines_[l].RunGraphQuery(q);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const StatsDelta delta = Minus(Snapshot(engines_[l]), before);
      EXPECT_EQ(got->records, want->records);
      EXPECT_EQ(got->edges, want->edges);
      EXPECT_TRUE(SameBits(got->columns, want->columns));
      EXPECT_EQ(delta, ExpectedFetchDelta(kLayouts[l], engines_[l], *got));
    }
  }
}

TEST_F(FetchLayoutTest, FetchOfEveryColumnForEveryRecordIsByteIdentical) {
  // Crosses every partition and every segment boundary at once, including
  // columns a tail never grew (NULL for its records).
  const std::vector<EdgeId> edges = AllEdges();
  Bitmap all(engines_[0].num_records());
  all.Fill();
  const MeasureTable want = engines_[0].query_engine().FetchMeasures(all, edges);
  ASSERT_EQ(want.num_rows(), kNumWalks);
  for (size_t l = 0; l < engines_.size(); ++l) {
    SCOPED_TRACE(Name(kLayouts[l]));
    const StatsDelta before = Snapshot(engines_[l]);
    const MeasureTable got =
        engines_[l].query_engine().FetchMeasures(all, edges);
    const StatsDelta delta = Minus(Snapshot(engines_[l]), before);
    EXPECT_EQ(got.records, want.records);
    EXPECT_TRUE(SameBits(got.columns, want.columns));
    EXPECT_EQ(delta, ExpectedFetchDelta(kLayouts[l], engines_[l], got));
  }
}

TEST_F(FetchLayoutTest, PathAggregatesAreByteIdenticalAndChargedAlike) {
  for (const AggFn fn : {AggFn::kSum, AggFn::kMax, AggFn::kCount}) {
    for (const GraphQuery& q : MakeWorkload(walks_)) {
      std::vector<StatsDelta> deltas;
      std::vector<PathAggResult> results;
      for (size_t l = 0; l < engines_.size(); ++l) {
        const StatsDelta before = Snapshot(engines_[l]);
        auto got = engines_[l].RunAggregateQuery(q, fn);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        deltas.push_back(Minus(Snapshot(engines_[l]), before));
        results.push_back(std::move(got).value());
      }
      for (size_t l = 1; l < engines_.size(); ++l) {
        SCOPED_TRACE(Name(kLayouts[l]));
        EXPECT_EQ(results[l].records, results[0].records);
        ASSERT_EQ(results[l].paths.size(), results[0].paths.size());
        EXPECT_TRUE(SameBits(results[l].values, results[0].values));
        // Every layout folds the same (record, element) values; the single
        // relation layouts also fetch the same columns. Folds never join.
        EXPECT_EQ(deltas[l].values_fetched, deltas[0].values_fetched);
        EXPECT_EQ(deltas[l].partition_joins, 0u);
        if (kLayouts[l] != Layout::kTails) {
          EXPECT_EQ(deltas[l], deltas[0]);
        }
      }
    }
  }
}

TEST_F(FetchLayoutTest, StoredNaNMeasureIsSummedNotSkipped) {
  for (const size_t i : kNanWalks) {
    const auto& walk = walks_[i];
    const GraphQuery q =
        GraphQuery::FromPath({N(walk[0]), N(walk[1]), N(walk[2])});
    for (size_t l = 0; l < engines_.size(); ++l) {
      SCOPED_TRACE(Name(kLayouts[l]));
      const auto sum = engines_[l].RunAggregateQuery(q, AggFn::kSum);
      ASSERT_TRUE(sum.ok()) << sum.status().ToString();
      ASSERT_EQ(sum->values.size(), 1u);
      bool found = false;
      for (size_t r = 0; r < sum->records.size(); ++r) {
        if (sum->records[r] != i) continue;
        found = true;
        EXPECT_TRUE(std::isnan(sum->values[0][r])) << "walk " << i;
      }
      EXPECT_TRUE(found) << "walk " << i << " does not match its own path";
      // COUNT counts the NaN hop as present: two hops on the path.
      const auto count = engines_[l].RunAggregateQuery(q, AggFn::kCount);
      ASSERT_TRUE(count.ok());
      for (size_t r = 0; r < count->records.size(); ++r) {
        if (count->records[r] == i) {
          EXPECT_EQ(count->values[0][r], 2.0);
        }
      }
    }
  }
}

}  // namespace
}  // namespace colgraph
