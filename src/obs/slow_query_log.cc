#include "obs/slow_query_log.h"

#include <algorithm>

#include "columnstore/io_util.h"
#include "obs/metrics.h"
#include "util/frame.h"

namespace colgraph::obs {

namespace {

/// Captured-record throughput, split by which rule fired, so operators can
/// see threshold hits vs. sampler picks without reading the log.
Counter& ThresholdCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("slow_query_log.threshold_hits");
  return c;
}
Counter& SampledCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("slow_query_log.sampled");
  return c;
}

// Record payload: [u64 request_id][u64 snapshot_epoch][u64 total_us]
//   [u32 wire_code][u8 op][u8 sampled][u16 pad]
//   [u32 len][query text]
//   [u32 n][n × ([u32 len][name][u64 start_us][u64 duration_us])]
void AppendRecordPayload(const SlowQueryRecord& r, std::vector<char>* out) {
  AppendPod(out, r.request_id);
  AppendPod(out, r.snapshot_epoch);
  AppendPod(out, r.total_us);
  AppendPod(out, r.wire_code);
  AppendPod(out, r.op);
  AppendPod(out, static_cast<uint8_t>(r.sampled ? 1 : 0));
  AppendPod(out, uint16_t{0});  // pad: keeps the u32 lengths aligned

  const size_t text_len = std::min(r.query.size(), kMaxSlowQueryTextBytes);
  AppendPod(out, static_cast<uint32_t>(text_len));
  AppendBytes(out, r.query.data(), text_len);

  AppendPod(out, static_cast<uint32_t>(r.spans.size()));
  for (const SlowQuerySpan& s : r.spans) {
    AppendPod(out, static_cast<uint32_t>(s.name.size()));
    AppendBytes(out, s.name.data(), s.name.size());
    AppendPod(out, s.start_us);
    AppendPod(out, s.duration_us);
  }
}

Status DecodeRecordPayload(LogPayloadCursor* in, SlowQueryRecord* r) {
  COLGRAPH_RETURN_NOT_OK(in->Read(&r->request_id));
  COLGRAPH_RETURN_NOT_OK(in->Read(&r->snapshot_epoch));
  COLGRAPH_RETURN_NOT_OK(in->Read(&r->total_us));
  COLGRAPH_RETURN_NOT_OK(in->Read(&r->wire_code));
  COLGRAPH_RETURN_NOT_OK(in->Read(&r->op));
  uint8_t sampled = 0;
  COLGRAPH_RETURN_NOT_OK(in->Read(&sampled));
  r->sampled = sampled != 0;
  uint16_t pad = 0;
  COLGRAPH_RETURN_NOT_OK(in->Read(&pad));

  uint32_t text_len = 0;
  COLGRAPH_RETURN_NOT_OK(in->Read(&text_len));
  COLGRAPH_RETURN_NOT_OK(in->ReadString(text_len, &r->query));

  // Each span needs at least its three fixed fields.
  uint32_t num_spans = 0;
  COLGRAPH_RETURN_NOT_OK(
      in->ReadCount(sizeof(uint32_t) + 2 * sizeof(uint64_t), &num_spans));
  r->spans.resize(num_spans);
  for (SlowQuerySpan& s : r->spans) {
    uint32_t name_len = 0;
    COLGRAPH_RETURN_NOT_OK(in->Read(&name_len));
    COLGRAPH_RETURN_NOT_OK(in->ReadString(name_len, &s.name));
    COLGRAPH_RETURN_NOT_OK(in->Read(&s.start_us));
    COLGRAPH_RETURN_NOT_OK(in->Read(&s.duration_us));
  }
  return Status::OK();
}

}  // namespace

void AppendSlowQueryFrame(const SlowQueryRecord& record,
                          std::vector<char>* out) {
  const size_t start = BeginFrame(kLogRecordFrame, out);
  AppendRecordPayload(record, out);
  EndFrame(start, out);
}

StatusOr<std::unique_ptr<SlowQueryLog>> SlowQueryLog::Open(
    SlowQueryLogOptions options) {
  if (options.path.empty()) {
    return Status::InvalidArgument("slow query log path must not be empty");
  }
  COLGRAPH_ASSIGN_OR_RETURN(io::AppendFile file,
                            io::AppendFile::Create(options.path));
  return std::unique_ptr<SlowQueryLog>(
      new SlowQueryLog(std::move(options), std::move(file)));
}

bool SlowQueryLog::AdmitForCapture(uint64_t total_us, bool* sampled_out) {
  const bool threshold_hit = total_us >= options_.threshold_us;
  bool sampler_hit = false;
  {
    const MutexLock lock(sampler_mu_);
    ++offered_;
    sampler_hit =
        options_.sample_every != 0 && offered_ % options_.sample_every == 0;
  }
  if (threshold_hit) {
    ThresholdCounter().Increment();
  } else if (sampler_hit) {
    SampledCounter().Increment();
  }
  if (sampled_out != nullptr) *sampled_out = !threshold_hit && sampler_hit;
  return threshold_hit || sampler_hit;
}

void SlowQueryLog::Append(const SlowQueryRecord& record) {
  // Serialize outside the lock, like QueryLog::Append: the buffer enqueue
  // is the only contended part.
  std::vector<char> frame;
  AppendSlowQueryFrame(record, &frame);
  Enqueue(frame);
}

StatusOr<std::vector<SlowQueryRecord>> DecodeSlowQueryLog(
    const std::vector<char>& data, const std::string& what) {
  std::vector<SlowQueryRecord> records;
  COLGRAPH_RETURN_NOT_OK(DecodeFramedLog(
      kSlowQueryLogFormat, data, what, [&records](LogPayloadCursor* c) {
        records.emplace_back();
        return DecodeRecordPayload(c, &records.back());
      }));
  return records;
}

StatusOr<std::vector<SlowQueryRecord>> ReadSlowQueryLog(
    const std::string& path) {
  COLGRAPH_ASSIGN_OR_RETURN(std::vector<char> data, io::ReadFileBytes(path));
  return DecodeSlowQueryLog(data, path);
}

}  // namespace colgraph::obs
