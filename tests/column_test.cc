#include "columnstore/column.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "columnstore/dataset.h"
#include "columnstore/master_relation.h"
#include "columnstore/persistence.h"
#include "util/random.h"

namespace colgraph {
namespace {

TEST(BitmapColumnTest, RankCountsSetBitsBefore) {
  BitmapColumn col(200);
  for (size_t pos : {0ul, 10ul, 63ul, 64ul, 150ul}) col.Set(pos);
  col.Seal();
  EXPECT_EQ(col.Rank(0), 0u);
  EXPECT_EQ(col.Rank(1), 1u);
  EXPECT_EQ(col.Rank(10), 1u);
  EXPECT_EQ(col.Rank(11), 2u);
  EXPECT_EQ(col.Rank(64), 3u);
  EXPECT_EQ(col.Rank(65), 4u);
  EXPECT_EQ(col.Rank(200), 5u);
}

TEST(BitmapColumnTest, RankMatchesBruteForceOnRandomData) {
  Rng rng(11);
  BitmapColumn col(1000);
  std::vector<bool> reference(1000, false);
  for (size_t i = 0; i < 1000; ++i) {
    if (rng.Bernoulli(0.2)) {
      col.Set(i);
      reference[i] = true;
    }
  }
  col.Seal();
  size_t running = 0;
  for (size_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(col.Rank(i), running) << "pos " << i;
    if (reference[i]) ++running;
  }
}

TEST(MeasureColumnTest, AppendGetRoundtrip) {
  MeasureColumn col;
  ASSERT_TRUE(col.Append(2, 10.5).ok());
  ASSERT_TRUE(col.Append(5, -3.0).ok());
  ASSERT_TRUE(col.Append(63, 7.0).ok());
  col.Seal(100);
  EXPECT_EQ(col.Get(2), 10.5);
  EXPECT_EQ(col.Get(5), -3.0);
  EXPECT_EQ(col.Get(63), 7.0);
  EXPECT_FALSE(col.Get(0).has_value());
  EXPECT_FALSE(col.Get(99).has_value());
  EXPECT_EQ(col.num_values(), 3u);
}

TEST(MeasureColumnTest, AppendRequiresIncreasingRecords) {
  MeasureColumn col;
  ASSERT_TRUE(col.Append(5, 1.0).ok());
  EXPECT_TRUE(col.Append(5, 2.0).IsInvalidArgument());
  EXPECT_TRUE(col.Append(3, 2.0).IsInvalidArgument());
  EXPECT_TRUE(col.Append(6, 2.0).ok());
}

TEST(MeasureColumnTest, AppendAfterSealRejected) {
  MeasureColumn col;
  ASSERT_TRUE(col.Append(0, 1.0).ok());
  col.Seal(10);
  EXPECT_TRUE(col.Append(5, 2.0).IsInvalidArgument());
}

TEST(MeasureColumnTest, EmptyColumnIsAllNull) {
  MeasureColumn col;
  col.Seal(50);
  for (size_t r = 0; r < 50; ++r) EXPECT_FALSE(col.Get(r).has_value());
  EXPECT_EQ(col.num_values(), 0u);
}

TEST(MeasureColumnTest, FromPartsReconstructs) {
  Bitmap presence(10);
  presence.Set(1);
  presence.Set(7);
  auto col = MeasureColumn::FromParts(presence, {42.0, 43.0});
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col->Get(1), 42.0);
  EXPECT_EQ(col->Get(7), 43.0);
  EXPECT_FALSE(col->Get(0).has_value());
}

TEST(MeasureColumnTest, FromPartsRejectsCardinalityMismatch) {
  Bitmap presence(10);
  presence.Set(1);
  EXPECT_TRUE(
      MeasureColumn::FromParts(presence, {1.0, 2.0}).status().IsCorruption());
}

TEST(MeasureColumnTest, ValueAtRankAlignsWithPresenceOrder) {
  MeasureColumn col;
  ASSERT_TRUE(col.Append(3, 30.0).ok());
  ASSERT_TRUE(col.Append(8, 80.0).ok());
  ASSERT_TRUE(col.Append(9, 90.0).ok());
  col.Seal(20);
  EXPECT_EQ(col.ValueAtRank(0), 30.0);
  EXPECT_EQ(col.ValueAtRank(1), 80.0);
  EXPECT_EQ(col.ValueAtRank(2), 90.0);
  EXPECT_EQ(col.ValueAtRank(col.presence().Rank(8)), 80.0);
}

// Property sweep: NULL-suppressed storage footprint tracks density, not the
// record count alone (the core of the paper's Figure 4 claim).
class MeasureColumnDensityTest : public ::testing::TestWithParam<double> {};

TEST_P(MeasureColumnDensityTest, FootprintTracksDensity) {
  const double density = GetParam();
  const size_t records = 10000;
  Rng rng(static_cast<uint64_t>(density * 1000) + 13);
  MeasureColumn col;
  size_t non_null = 0;
  for (size_t r = 0; r < records; ++r) {
    if (rng.Bernoulli(density)) {
      ASSERT_TRUE(col.Append(r, 1.0).ok());
      ++non_null;
    }
  }
  col.Seal(records);
  EXPECT_EQ(col.num_values(), non_null);
  // Memory = fixed bitmap + values proportional to density.
  const size_t bitmap_part = col.presence().MemoryBytes();
  EXPECT_EQ(col.MemoryBytes() - bitmap_part, non_null * sizeof(double));
}

INSTANTIATE_TEST_SUITE_P(Densities, MeasureColumnDensityTest,
                         ::testing::Values(0.0, 0.01, 0.1, 0.5, 1.0));

// --- Gather vs Get differential ------------------------------------------
//
// Gather is the bulk read every fetch and fold goes through; Get is the
// point read. For every row, Gather must report Get's presence, and for a
// present row the bit-identical value (a stored NaN included); an absent
// row reads NaN. Under ASan this also proves no absent row touches the
// value array: the last absent row's rank is num_values(), one past it.

bool SameBits(double a, double b) {
  uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(a));
  std::memcpy(&ub, &b, sizeof(b));
  return ua == ub;
}

// Checks Gather over global ids `records` (rebased by `base`) against Get,
// with and without the presence output.
void ExpectGatherMatchesGet(const MeasureColumn& col,
                            const std::vector<uint64_t>& records,
                            uint64_t base = 0) {
  std::vector<double> out(records.size(), 12345.0);
  std::vector<uint8_t> present(records.size(), 7);
  col.Gather(records.data(), records.size(), base, out.data(),
             present.data());
  std::vector<double> out_only(records.size(), 12345.0);
  col.Gather(records.data(), records.size(), base, out_only.data(), nullptr);
  for (size_t i = 0; i < records.size(); ++i) {
    const auto want = col.Get(records[i] - base);
    ASSERT_EQ(present[i], want.has_value() ? 1 : 0) << "row " << i;
    if (want.has_value()) {
      ASSERT_TRUE(SameBits(out[i], *want)) << "row " << i;
    } else {
      ASSERT_TRUE(std::isnan(out[i])) << "row " << i;
    }
    ASSERT_TRUE(SameBits(out_only[i], out[i])) << "row " << i;
  }
}

std::vector<uint64_t> AllRecords(size_t n, uint64_t base = 0) {
  std::vector<uint64_t> records(n);
  for (size_t r = 0; r < n; ++r) records[r] = base + r;
  return records;
}

// A sealed column over `num_records` with each record present with
// probability `density`; values are distinct, and every 7th one is NaN.
MeasureColumn RandomColumn(size_t num_records, double density, uint64_t seed) {
  Rng rng(seed);
  MeasureColumn col;
  size_t k = 0;
  for (size_t r = 0; r < num_records; ++r) {
    if (!rng.Bernoulli(density)) continue;
    const double v = ++k % 7 == 0 ? std::numeric_limits<double>::quiet_NaN()
                                  : static_cast<double>(r) * 1.5 - 100.0;
    COLGRAPH_CHECK_OK(col.Append(r, v));
  }
  col.Seal(num_records);
  return col;
}

TEST(MeasureColumnGatherTest, MatchesGetAcrossDensities) {
  for (const double density : {0.0, 0.003, 0.05, 0.3, 0.7, 0.97, 1.0}) {
    SCOPED_TRACE(density);
    const size_t n = 3000;
    const MeasureColumn col =
        RandomColumn(n, density, static_cast<uint64_t>(density * 1000) + 5);
    // Every record, then a random sorted subset (a match list).
    ExpectGatherMatchesGet(col, AllRecords(n));
    Rng rng(91);
    std::vector<uint64_t> subset;
    for (uint64_t r = 0; r < n; ++r) {
      if (rng.Bernoulli(0.2)) subset.push_back(r);
    }
    ExpectGatherMatchesGet(col, subset);
  }
}

TEST(MeasureColumnGatherTest, WordAndBlockEdges) {
  const MeasureColumn col = RandomColumn(1200, 0.5, 77);
  // Rows on presence-word edges.
  ExpectGatherMatchesGet(col, {0, 1, 62, 63, 64, 65, 127, 128, 1199});
  // Row counts around the block size, so blocks end at 255/256/257 rows.
  constexpr size_t kBlock = MeasureColumn::kGatherBlock;
  for (const size_t rows :
       {kBlock - 1, kBlock, kBlock + 1, 2 * kBlock - 1, 2 * kBlock + 1}) {
    SCOPED_TRACE(rows);
    ExpectGatherMatchesGet(col, AllRecords(rows));
  }
}

TEST(MeasureColumnGatherTest, AbsentRecordsAfterTheLastValue) {
  // Records past the last present one rank at num_values(): the gather
  // must report them NULL without reading the value array there. FromParts
  // keeps the vector it is given, allocated to exactly num_values() here,
  // so under ASan such a read is a heap overflow.
  Bitmap presence(300);
  std::vector<double> values(10);
  for (size_t r = 0; r < values.size(); ++r) {
    presence.Set(r);
    values[r] = 1.0 + static_cast<double>(r);
  }
  auto col = MeasureColumn::FromParts(std::move(presence), std::move(values));
  ASSERT_TRUE(col.ok()) << col.status().ToString();
  ExpectGatherMatchesGet(col.value(), {0, 9, 10, 64, 256, 299});
  ExpectGatherMatchesGet(col.value(), {299});
}

TEST(MeasureColumnGatherTest, EmptyInputAndAllNullColumn) {
  const MeasureColumn col = RandomColumn(100, 0.5, 3);
  col.Gather(nullptr, 0, 0, nullptr, nullptr);  // touches nothing
  ExpectGatherMatchesGet(col, {});
  MeasureColumn empty;
  empty.Seal(100);
  ExpectGatherMatchesGet(empty, AllRecords(100));
}

TEST(MeasureColumnGatherTest, StoredNaNIsPresent) {
  MeasureColumn col;
  ASSERT_TRUE(col.Append(4, std::numeric_limits<double>::quiet_NaN()).ok());
  col.Seal(10);
  const std::vector<uint64_t> records = {3, 4};
  double out[2];
  uint8_t present[2];
  col.Gather(records.data(), 2, 0, out, present);
  EXPECT_EQ(present[0], 0);
  EXPECT_EQ(present[1], 1);
  EXPECT_TRUE(std::isnan(out[1]));
}

TEST(MeasureColumnGatherTest, RebasesBySegmentOffset) {
  const MeasureColumn col = RandomColumn(700, 0.4, 8);
  ExpectGatherMatchesGet(col, AllRecords(700, 5000), 5000);
}

TEST(MeasureColumnGatherTest, ResealedColumnAfterAppend) {
  MeasureColumn col;
  Rng rng(12);
  for (size_t r = 0; r < 400; ++r) {
    if (rng.Bernoulli(0.3)) {
      ASSERT_TRUE(col.Append(r, 0.5 * static_cast<double>(r)).ok());
    }
  }
  col.Seal(400);
  ExpectGatherMatchesGet(col, AllRecords(400));
  col.Unseal();
  for (size_t r = 400; r < 1000; ++r) {
    if (rng.Bernoulli(0.6)) {
      ASSERT_TRUE(col.Append(r, -0.25 * static_cast<double>(r)).ok());
    }
  }
  col.Seal(1000);
  ExpectGatherMatchesGet(col, AllRecords(1000));
}

TEST(MeasureColumnGatherTest, ColumnDecodedFromMappedV4File) {
  const std::string dir = ::testing::TempDir() + "colgraph_gather_v4";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Rng rng(21);
  MasterRelation rel;
  for (size_t r = 0; r < 900; ++r) {
    std::vector<std::pair<EdgeId, double>> record;
    for (EdgeId e = 0; e < 5; ++e) {
      if (rng.Bernoulli(0.1 + 0.2 * e)) {
        record.emplace_back(e, rng.UniformReal(-9, 9));
      }
    }
    ASSERT_TRUE(rel.AddRecord(record).ok());
  }
  ASSERT_TRUE(rel.Seal().ok());
  const std::string path = dir + "/rel.bin";
  ASSERT_TRUE(WriteRelation(rel, path).ok());
  auto mapped = MappedRelationFile::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  for (size_t c = 0; c < mapped.value().num_columns(); ++c) {
    SCOPED_TRACE(c);
    auto col = mapped.value().ReadColumn(c);
    ASSERT_TRUE(col.ok()) << col.status().ToString();
    ExpectGatherMatchesGet(col.value(), AllRecords(900));
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace colgraph
