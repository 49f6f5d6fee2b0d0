#include "columnstore/column.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "util/check.h"

namespace colgraph {

void BitmapColumn::Seal() {
  const auto& words = bits_.words();
  rank_.resize(words.size());
  uint32_t cum = 0;
  for (size_t i = 0; i < words.size(); ++i) {
    rank_[i] = cum;
    cum += static_cast<uint32_t>(__builtin_popcountll(words[i]));
  }
  count_ = cum;
  sealed_ = true;
}

void BitmapColumn::ChooseEncoding(bool hybrid_enabled) {
  COLGRAPH_DCHECK(sealed_);
  if (hybrid_enabled && count_ * kHybridDensityDivisor <= bits_.size()) {
    hybrid_ = std::make_shared<const HybridBitmap>(
        HybridBitmap::FromBitmap(bits_));
  } else {
    hybrid_.reset();
  }
}

size_t BitmapColumn::Rank(size_t pos) const {
  COLGRAPH_DCHECK(sealed_);
  COLGRAPH_DCHECK_LE(pos, bits_.size());
  const size_t word = pos / Bitmap::kWordBits;
  const size_t bit = pos % Bitmap::kWordBits;
  if (word >= bits_.words().size()) return rank_.empty() ? 0 : Count();
  size_t r = rank_[word];
  if (bit != 0) {
    const uint64_t mask = (uint64_t{1} << bit) - 1;
    r += static_cast<size_t>(__builtin_popcountll(bits_.words()[word] & mask));
  }
  return r;
}

Status MeasureColumn::Append(size_t record, double value) {
  if (!pending_records_.empty() && record <= pending_records_.back()) {
    return Status::InvalidArgument(
        "MeasureColumn::Append requires strictly increasing record ids");
  }
  if (record < min_next_record_) {
    return Status::InvalidArgument(
        "append into the already-sealed record range");
  }
  if (presence_.sealed()) {
    return Status::InvalidArgument("cannot append to a sealed column");
  }
  pending_records_.push_back(record);
  values_.push_back(value);
  return Status::OK();
}

StatusOr<MeasureColumn> MeasureColumn::FromParts(Bitmap presence,
                                                 std::vector<double> values) {
  if (presence.Count() != values.size()) {
    return Status::Corruption(
        "presence cardinality does not match packed value count");
  }
  MeasureColumn col;
  col.values_ = std::move(values);
  col.presence_ = BitmapColumn(std::move(presence));
  return col;
}

void MeasureColumn::Seal(size_t num_records) {
  presence_.Resize(num_records);
  for (uint64_t r : pending_records_) presence_.Set(r);
  pending_records_.clear();
  pending_records_.shrink_to_fit();
  presence_.Seal();
}

void MeasureColumn::Unseal() {
  min_next_record_ = presence_.size();
  presence_.Unseal();
}

void MeasureColumn::Gather(const uint64_t* records, size_t n, uint64_t base,
                           double* out, uint8_t* present) const {
  COLGRAPH_DCHECK(sealed());
  constexpr double kNull = std::numeric_limits<double>::quiet_NaN();
  if (values_.empty()) {
    // All NULL: no rank can index the empty value array.
    std::fill(out, out + n, kNull);
    if (present != nullptr) std::memset(present, 0, n);
    return;
  }
  const uint64_t* words = presence_.bits().words().data();
  const double* values = values_.data();
  uint32_t rank[kGatherBlock];
  uint8_t hit[kGatherBlock];
  for (size_t begin = 0; begin < n; begin += kGatherBlock) {
    const size_t len = std::min(kGatherBlock, n - begin);
    const uint64_t* rows = records + begin;
    // Pass 1: presence and rank from the row's presence word.
    for (size_t i = 0; i < len; ++i) {
      const uint64_t record = rows[i] - base;
      COLGRAPH_DCHECK_LT(record, presence_.size());
      const size_t word = record / Bitmap::kWordBits;
      const uint64_t bits = words[word];
      const uint64_t bit = record % Bitmap::kWordBits;
      const uint64_t set = (bits >> bit) & 1;
      const uint64_t below = bits & ((uint64_t{1} << bit) - 1);
      // An absent row's rank can equal num_values(), one past the end;
      // send it to value 0 so pass 2 loads unconditionally and in bounds.
      rank[i] = static_cast<uint32_t>(
          (presence_.WordRank(word) +
           static_cast<size_t>(__builtin_popcountll(below))) *
          set);
      hit[i] = static_cast<uint8_t>(set);
      // Start the value's load now; pass 2 finds it in flight.
      __builtin_prefetch(values + rank[i]);
    }
    // Pass 2: the packed values by rank.
    double* dst = out + begin;
    for (size_t i = 0; i < len; ++i) {
      const double v = values[rank[i]];
      dst[i] = hit[i] != 0 ? v : kNull;
    }
    if (present != nullptr) std::memcpy(present + begin, hit, len);
  }
}

void MeasureColumnAppender::Append(const MeasureColumn* col,
                                   size_t num_records) {
  if (col != nullptr) {
    presence_.OrAt(col->presence().bits(), base_);
    for (size_t rank = 0; rank < col->num_values(); ++rank) {
      values_.push_back(col->ValueAtRank(rank));
    }
  }
  base_ += num_records;
}

StatusOr<MeasureColumn> MeasureColumnAppender::Finish(bool hybrid_bitmaps) && {
  COLGRAPH_CHECK_EQ(base_, presence_.size());
  COLGRAPH_ASSIGN_OR_RETURN(
      MeasureColumn merged,
      MeasureColumn::FromParts(std::move(presence_), std::move(values_)));
  merged.ChooseEncoding(hybrid_bitmaps);
  return merged;
}

}  // namespace colgraph
