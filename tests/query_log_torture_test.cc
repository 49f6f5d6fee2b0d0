// Corruption torture for both framed-log formats, the query log and the
// slow-query log (obs/framed_log.h): a valid closed log must fail with
// Status::Corruption for EVERY byte-truncation — including cuts on frame
// boundaries, which is what the mandatory footer exists to catch — and for
// every single-byte bit flip (CRC-32C detects all single-bit errors; the
// structural checks catch flips in the unchecksummed frame headers).
//
// The valid images are built by hand from the documented layouts, not by
// the codecs under test, and each format's writer must reproduce its image
// byte for byte: the golden check that the on-disk formats do not move.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <unistd.h>

#include "obs/query_log.h"
#include "obs/query_log_reader.h"
#include "obs/slow_query_log.h"
#include "util/crc32.h"

namespace colgraph {
namespace {

using obs::QueryLogKind;
using obs::QueryLogRecord;
using obs::SlowQueryRecord;

NodeRef N(NodeId id) { return NodeRef{id, 0}; }

// resize+memcpy instead of vector::insert from reinterpreted pointers:
// the insert form trips GCC 12's -Wstringop-overflow false positive
// under COLGRAPH_STRICT.
template <typename T>
void Put(std::vector<char>* out, const T& value) {
  const size_t old = out->size();
  out->resize(old + sizeof(T));
  std::memcpy(out->data() + old, &value, sizeof(T));
}

void PutText(std::vector<char>* out, const std::string& text) {
  Put(out, static_cast<uint32_t>(text.size()));
  out->insert(out->end(), text.begin(), text.end());
}

// [u8 type][u64 len][u32 crc32c(payload)][payload]
void PutFrame(uint8_t type, const std::vector<char>& payload,
              std::vector<char>* out) {
  Put(out, type);
  Put(out, static_cast<uint64_t>(payload.size()));
  Put(out, Crc32c(payload.data(), payload.size()));
  out->insert(out->end(), payload.begin(), payload.end());
}

// The footer frame's size: header plus [u32 magic][u64 count].
constexpr size_t kFooterFrameBytes = 13 + 12;

QueryLogRecord QueryRecord(size_t i) {
  QueryLogRecord rec;
  rec.kind = (i % 2 == 0) ? QueryLogKind::kMatch : QueryLogKind::kPathAgg;
  rec.fn = (i % 2 == 0) ? AggFn::kSum : AggFn::kMin;
  rec.edges = {Edge{N(1), N(2)}, Edge{N(2), N(3)}};
  if (i % 3 == 0) rec.isolated_nodes.push_back(N(7));
  rec.graph_view_indexes = {static_cast<uint32_t>(i)};
  rec.phase_us[0] = 11 * (i + 1);
  rec.total_us = 100 + i;
  rec.result_cardinality = i;
  return rec;
}

std::vector<char> QueryPayload(size_t i) {
  const QueryLogRecord r = QueryRecord(i);
  std::vector<char> p;
  Put(&p, static_cast<uint8_t>(r.kind));
  Put(&p, static_cast<uint8_t>(r.fn));
  Put(&p, uint16_t{0});
  Put(&p, static_cast<uint32_t>(r.edges.size()));
  for (const Edge& e : r.edges) {
    Put(&p, e.from.base);
    Put(&p, e.from.occurrence);
    Put(&p, e.to.base);
    Put(&p, e.to.occurrence);
  }
  Put(&p, static_cast<uint32_t>(r.isolated_nodes.size()));
  for (const NodeRef& n : r.isolated_nodes) {
    Put(&p, n.base);
    Put(&p, n.occurrence);
  }
  Put(&p, static_cast<uint32_t>(r.graph_view_indexes.size()));
  for (const uint32_t v : r.graph_view_indexes) Put(&p, v);
  Put(&p, uint32_t{0});  // no aggregate views
  for (const uint64_t us : r.phase_us) Put(&p, us);
  Put(&p, r.total_us);
  Put(&p, r.result_cardinality);
  return p;
}

SlowQueryRecord SlowRecord(size_t i) {
  SlowQueryRecord rec;
  rec.request_id = 1000 + i;
  rec.snapshot_epoch = i;
  rec.total_us = 5000 + i;
  rec.wire_code = static_cast<uint32_t>(i % 2);
  rec.op = 1;
  rec.sampled = i % 2 == 1;
  rec.query = "query [1,2]";
  rec.spans = {{"decode", 0, 3}, {"execute", 3, 40 + i}};
  return rec;
}

std::vector<char> SlowPayload(size_t i) {
  const SlowQueryRecord r = SlowRecord(i);
  std::vector<char> p;
  Put(&p, r.request_id);
  Put(&p, r.snapshot_epoch);
  Put(&p, r.total_us);
  Put(&p, r.wire_code);
  Put(&p, r.op);
  Put(&p, static_cast<uint8_t>(r.sampled ? 1 : 0));
  Put(&p, uint16_t{0});
  PutText(&p, r.query);
  Put(&p, static_cast<uint32_t>(r.spans.size()));
  for (const obs::SlowQuerySpan& s : r.spans) {
    PutText(&p, s.name);
    Put(&p, s.start_us);
    Put(&p, s.duration_us);
  }
  return p;
}

std::vector<char> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in), {});
}

std::string TempPath(const char* tag) {
  return testing::TempDir() + "log_torture_" + tag + "_" +
         std::to_string(::getpid());
}

// One framed-log format under torture: its magics, its record layout
// (hand-encoded), its production writer and its decoder.
struct LogFormat {
  const char* name;
  uint32_t magic;
  uint32_t footer_magic;
  std::vector<char> (*record_payload)(size_t i);
  // Writes records 0..n-1 through the production writer; returns the file.
  std::vector<char> (*write)(size_t n);
  // Decodes an image; returns the number of records.
  StatusOr<size_t> (*decode)(const std::vector<char>& data);
};

const LogFormat kFormats[] = {
    {"query log", 0x4C514743 /* "CGQL" */, 0x46514743 /* "CGQF" */,
     QueryPayload,
     [](size_t n) {
       const std::string path = TempPath("qlog");
       obs::QueryLogOptions options;
       options.path = path;
       auto log = obs::QueryLog::Open(options);
       if (!log.ok()) {
         ADD_FAILURE() << log.status().ToString();
         return std::vector<char>{};
       }
       for (size_t i = 0; i < n; ++i) (*log)->Append(QueryRecord(i));
       EXPECT_TRUE((*log)->Close().ok());
       std::vector<char> bytes = ReadBytes(path);
       (void)std::remove(path.c_str());
       return bytes;
     },
     [](const std::vector<char>& data) -> StatusOr<size_t> {
       auto records = obs::DecodeQueryLog(data, "torture");
       if (!records.ok()) return records.status();
       return records->size();
     }},
    {"slow query log", 0x51534743 /* "CGSQ" */, 0x46534743 /* "CGSF" */,
     SlowPayload,
     [](size_t n) {
       const std::string path = TempPath("sqlog");
       obs::SlowQueryLogOptions options;
       options.path = path;
       auto log = obs::SlowQueryLog::Open(options);
       if (!log.ok()) {
         ADD_FAILURE() << log.status().ToString();
         return std::vector<char>{};
       }
       for (size_t i = 0; i < n; ++i) (*log)->Append(SlowRecord(i));
       EXPECT_TRUE((*log)->Close().ok());
       std::vector<char> bytes = ReadBytes(path);
       (void)std::remove(path.c_str());
       return bytes;
     },
     [](const std::vector<char>& data) -> StatusOr<size_t> {
       auto records = obs::DecodeSlowQueryLog(data, "torture");
       if (!records.ok()) return records.status();
       return records->size();
     }},
};

// A complete, valid log image: header, `n` record frames, then a footer
// claiming `footer_count` records.
std::vector<char> HandBuiltLog(const LogFormat& format, size_t n,
                               uint64_t footer_count) {
  std::vector<char> data;
  Put(&data, format.magic);
  Put(&data, uint32_t{1});  // version
  for (size_t i = 0; i < n; ++i) PutFrame(0, format.record_payload(i), &data);
  std::vector<char> footer;
  Put(&footer, format.footer_magic);
  Put(&footer, footer_count);
  PutFrame(1, footer, &data);
  return data;
}

std::vector<char> ValidLog(const LogFormat& format, size_t n) {
  return HandBuiltLog(format, n, n);
}

TEST(QueryLogTortureTest, HandBuiltImageMatchesTheReader) {
  for (const LogFormat& format : kFormats) {
    SCOPED_TRACE(format.name);
    const auto count = format.decode(ValidLog(format, 4));
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(*count, 4u);
  }
  // Field-level: the decoded records are the ones encoded.
  const auto queries =
      obs::DecodeQueryLog(ValidLog(kFormats[0], 4), "torture");
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();
  EXPECT_EQ((*queries)[1].kind, QueryLogKind::kPathAgg);
  EXPECT_EQ((*queries)[3].result_cardinality, 3u);
  EXPECT_EQ((*queries)[3].isolated_nodes.size(), 1u);
  const auto slow =
      obs::DecodeSlowQueryLog(ValidLog(kFormats[1], 4), "torture");
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  EXPECT_EQ((*slow)[3].request_id, 1003u);
  EXPECT_TRUE((*slow)[3].sampled);
  EXPECT_EQ((*slow)[3].query, "query [1,2]");
  ASSERT_EQ((*slow)[3].spans.size(), 2u);
  EXPECT_EQ((*slow)[3].spans[1].name, "execute");
  EXPECT_EQ((*slow)[3].spans[1].duration_us, 43u);
}

TEST(QueryLogTortureTest, WriterMatchesHandBuiltImage) {
  for (const LogFormat& format : kFormats) {
    SCOPED_TRACE(format.name);
    for (const size_t n : {size_t{0}, size_t{1}, size_t{5}}) {
      EXPECT_EQ(format.write(n), ValidLog(format, n)) << n << " records";
    }
  }
}

TEST(QueryLogTortureTest, EveryByteTruncationIsCorruption) {
  for (const LogFormat& format : kFormats) {
    SCOPED_TRACE(format.name);
    const std::vector<char> data = ValidLog(format, 4);
    for (size_t cut = 0; cut < data.size(); ++cut) {
      const std::vector<char> truncated(
          data.begin(), data.begin() + static_cast<std::ptrdiff_t>(cut));
      const auto count = format.decode(truncated);
      ASSERT_FALSE(count.ok()) << "truncation at byte " << cut << " of "
                               << data.size() << " read successfully";
      EXPECT_TRUE(count.status().IsCorruption())
          << "truncation at byte " << cut << ": "
          << count.status().ToString();
      if (cut == data.size() - kFooterFrameBytes) {
        // Cut exactly at the footer's frame boundary.
        EXPECT_NE(count.status().ToString().find("missing footer"),
                  std::string::npos)
            << count.status().ToString();
      }
    }
  }
}

TEST(QueryLogTortureTest, EverySingleByteFlipIsCorruption) {
  for (const LogFormat& format : kFormats) {
    SCOPED_TRACE(format.name);
    const std::vector<char> data = ValidLog(format, 3);
    for (size_t pos = 0; pos < data.size(); ++pos) {
      for (const char mask : {char(0x01), char(0x80)}) {
        std::vector<char> flipped = data;
        flipped[pos] = static_cast<char>(flipped[pos] ^ mask);
        const auto count = format.decode(flipped);
        ASSERT_FALSE(count.ok())
            << "bit flip at byte " << pos << " read successfully";
        EXPECT_TRUE(count.status().IsCorruption())
            << "bit flip at byte " << pos << ": "
            << count.status().ToString();
      }
    }
  }
}

TEST(QueryLogTortureTest, TrailingGarbageAndFrameAfterFooter) {
  for (const LogFormat& format : kFormats) {
    SCOPED_TRACE(format.name);
    const std::vector<char> data = ValidLog(format, 2);
    // One stray byte after the footer.
    std::vector<char> trailing = data;
    trailing.push_back(0x5A);
    auto count = format.decode(trailing);
    ASSERT_FALSE(count.ok());
    EXPECT_TRUE(count.status().IsCorruption());

    // A whole valid record frame appended after the footer.
    std::vector<char> after = data;
    PutFrame(0, format.record_payload(2), &after);
    count = format.decode(after);
    ASSERT_FALSE(count.ok());
    EXPECT_TRUE(count.status().IsCorruption());
    EXPECT_NE(count.status().ToString().find("after the footer"),
              std::string::npos)
        << count.status().ToString();
  }
}

TEST(QueryLogTortureTest, FooterCountMismatchIsCorruption) {
  for (const LogFormat& format : kFormats) {
    SCOPED_TRACE(format.name);
    // 3 record frames whose footer claims 2 (and 4).
    for (const uint64_t claimed : {uint64_t{2}, uint64_t{4}}) {
      const auto count = format.decode(HandBuiltLog(format, 3, claimed));
      ASSERT_FALSE(count.ok());
      EXPECT_TRUE(count.status().IsCorruption());
      EXPECT_NE(count.status().ToString().find("count"), std::string::npos)
          << count.status().ToString();
    }
  }
}

}  // namespace
}  // namespace colgraph
