#include "obs/framed_log.h"

#include <cstdio>

#include "obs/metrics.h"
#include "util/frame.h"

namespace colgraph::obs {

namespace {
constexpr size_t kPreambleBytes = 2 * sizeof(uint32_t);   // magic + version
constexpr size_t kFooterPayloadBytes = sizeof(uint32_t) + sizeof(uint64_t);

// Mirrors a drop into the format's process-wide counter (looked up on the
// cold drop path only, so the counter appears once capture first loses
// records).
void CountDropped(const FramedLogFormat& format, uint64_t n) {
  MetricsRegistry::Global().GetCounter(format.dropped_counter).Add(n);
}
}  // namespace

void AppendLogHeader(const FramedLogFormat& format, std::vector<char>* out) {
  AppendPod(out, format.magic);
  AppendPod(out, format.version);
}

void AppendLogFooter(const FramedLogFormat& format, uint64_t record_count,
                     std::vector<char>* out) {
  const size_t start = BeginFrame(kLogFooterFrame, out);
  AppendPod(out, format.footer_magic);
  AppendPod(out, record_count);
  EndFrame(start, out);
}

FramedLogWriter::FramedLogWriter(const FramedLogFormat& format,
                                 size_t flush_bytes, io::AppendFile file)
    : format_(format),
      flush_bytes_(flush_bytes),
      file_(std::move(file)) {
  const MutexLock lock(mu_);
  AppendLogHeader(format_, &buffer_);
}

FramedLogWriter::~FramedLogWriter() {
  const Status s = Close();
  if (!s.ok()) {
    std::fprintf(stderr, "colgraph: %s close failed: %s\n", format_.name,
                 s.ToString().c_str());
  }
}

void FramedLogWriter::Enqueue(const std::vector<char>& frame) {
  const MutexLock lock(mu_);
  if (closed_) return;
  if (!first_error_.ok()) {
    // Poisoned (disk full, torn write): the caller keeps serving; the
    // record is dropped and the loss is counted, not fatal.
    ++dropped_;
    CountDropped(format_, 1);
    return;
  }
  AppendBytes(&buffer_, frame.data(), frame.size());
  ++records_;
  ++buffered_records_;
  if (buffer_.size() >= flush_bytes_) FlushLocked();
}

void FramedLogWriter::FlushLocked() {
  if (buffer_.empty() || !first_error_.ok()) return;
  const Status s = file_.Append(buffer_.data(), buffer_.size());
  buffer_.clear();
  if (!s.ok()) {
    first_error_ = s;
    // The buffered records went down with the failed write.
    dropped_ += buffered_records_;
    CountDropped(format_, buffered_records_);
    std::fprintf(stderr,
                 "colgraph: %s write failed, capture degraded to dropping "
                 "(%s)\n",
                 format_.name, s.ToString().c_str());
  }
  buffered_records_ = 0;
}

Status FramedLogWriter::Flush() {
  const MutexLock lock(mu_);
  FlushLocked();
  return first_error_;
}

Status FramedLogWriter::Close() {
  const MutexLock lock(mu_);
  if (closed_) return first_error_;
  closed_ = true;
  if (first_error_.ok()) {
    AppendLogFooter(format_, records_, &buffer_);
    FlushLocked();
  }
  const Status sync = file_.SyncAndClose();
  if (first_error_.ok()) first_error_ = sync;
  return first_error_;
}

uint64_t FramedLogWriter::records_appended() const {
  const MutexLock lock(mu_);
  return records_;
}

uint64_t FramedLogWriter::records_dropped() const {
  const MutexLock lock(mu_);
  return dropped_;
}

Status DecodeFramedLog(
    const FramedLogFormat& format, const std::vector<char>& data,
    const std::string& what,
    const std::function<Status(LogPayloadCursor*)>& decode_record) {
  const auto corrupt = [&what](const std::string& msg) {
    return Status::Corruption(msg + " in " + what);
  };
  const std::string name = format.name;

  if (data.size() < kPreambleBytes) {
    return corrupt("truncated " + name + " preamble");
  }
  uint32_t magic = 0, version = 0;
  std::memcpy(&magic, data.data(), sizeof(magic));
  std::memcpy(&version, data.data() + sizeof(magic), sizeof(version));
  if (magic != format.magic) return corrupt("bad " + name + " magic");
  if (version != format.version) {
    return corrupt("unsupported " + name + " version " +
                   std::to_string(version));
  }

  uint64_t records = 0;
  bool saw_footer = false;
  uint64_t footer_count = 0;
  size_t pos = kPreambleBytes;
  while (pos < data.size()) {
    if (saw_footer) return corrupt("frame after the footer");
    if (data.size() - pos < kFrameHeaderBytes) {
      return corrupt("truncated frame header");
    }
    const FrameHeader header = ParseFrameHeader(data.data() + pos);
    pos += kFrameHeaderBytes;
    if (header.payload_len > data.size() - pos) {
      return corrupt("frame length exceeds file size");
    }
    const char* payload = data.data() + pos;
    const size_t len = static_cast<size_t>(header.payload_len);
    if (FramePayloadCrc(payload, len) != header.crc) {
      return corrupt("frame checksum mismatch");
    }
    pos += len;

    switch (header.type) {
      case kLogRecordFrame: {
        LogPayloadCursor cursor(payload, len, what);
        COLGRAPH_RETURN_NOT_OK(decode_record(&cursor));
        if (!cursor.AtEnd()) {
          return corrupt("trailing bytes inside a record payload");
        }
        ++records;
        break;
      }
      case kLogFooterFrame: {
        if (len != kFooterPayloadBytes) {
          return corrupt("footer payload has the wrong size");
        }
        uint32_t footer_magic = 0;
        std::memcpy(&footer_magic, payload, sizeof(footer_magic));
        std::memcpy(&footer_count, payload + sizeof(footer_magic),
                    sizeof(footer_count));
        if (footer_magic != format.footer_magic) {
          return corrupt("bad footer magic");
        }
        saw_footer = true;
        break;
      }
      default:
        return corrupt("unknown frame type");
    }
  }

  // The footer is mandatory and must account for every record: its absence
  // means the log was torn (crash before Close, or a truncation that
  // happened to land on a frame boundary).
  if (!saw_footer) {
    return corrupt("missing footer (log not closed, or truncated)");
  }
  if (footer_count != records) {
    return corrupt("footer record count does not match the frames present");
  }
  return Status::OK();
}

}  // namespace colgraph::obs
