// The framed log (DESIGN.md §10): the one writer and the one validating
// decoder behind both durable capture logs, the query log (query_log.h)
// and the slow-query log (slow_query_log.h). Each log is a typed payload
// codec over these two parts; the file layout is
//
//   header:  [u32 magic][u32 version]
//   frame*:  CRC frames (util/frame.h), type 0 = record, type 1 = footer
//   footer payload: [u32 footer magic][u64 record_count]
//
// The footer frame is mandatory and must be the file's last bytes: a log
// without it — any truncation, including one cut exactly at a frame
// boundary — reads as Status::Corruption, never as a silently shorter
// log. Records are framed individually so the writer can stream appends;
// each frame's CRC-32C catches bit rot in place.
//
// Durability: appends are buffered in memory (the hot path pays a mutex +
// memcpy enqueue, no syscalls) and written out once the buffer reaches
// the flush threshold; Close() writes the footer and fsyncs. A crash
// before Close() loses only the un-Closed tail — by design the logs are
// advisory observability data, not the database of record (contrast
// snapshot v2's write-tmp-then-rename in io_util.h). The first failed
// file write poisons the log: later appends drop and are counted, a
// one-line warning goes to stderr, and Close() returns the error — a full
// disk degrades capture, never the caller.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "columnstore/io_util.h"
#include "util/status.h"
#include "util/sync.h"

namespace colgraph::obs {

/// The identity of one framed-log format.
struct FramedLogFormat {
  /// Names the format in error messages and warnings ("query log").
  const char* name;
  uint32_t magic;
  uint32_t footer_magic;
  uint32_t version;
  /// Process-wide counter that mirrors the writer's drop count, so capture
  /// loss shows up in DumpMetricsJson, not just in one log instance.
  const char* dropped_counter;
};

inline constexpr uint8_t kLogRecordFrame = 0;
inline constexpr uint8_t kLogFooterFrame = 1;

/// Appends the file header ([magic][version]) of `format` to `out`.
void AppendLogHeader(const FramedLogFormat& format, std::vector<char>* out);

/// Appends the footer frame that closes a log of `record_count` records.
void AppendLogFooter(const FramedLogFormat& format, uint64_t record_count,
                     std::vector<char>* out);

/// \brief Buffered, poison-on-failure writer of one framed log: the base of
/// each typed log, which serializes its records into frames and enqueues
/// them. Thread-safe: concurrent appends serialize on one mutex.
class FramedLogWriter {
 public:
  FramedLogWriter(const FramedLogWriter&) = delete;
  FramedLogWriter& operator=(const FramedLogWriter&) = delete;

  /// Writes any buffered frames to the file (no fsync, no footer).
  [[nodiscard]] Status Flush();

  /// Flushes, appends the footer frame, fsyncs, and closes. Idempotent;
  /// returns the first error the log hit, if any. After Close() further
  /// appends drop silently.
  [[nodiscard]] Status Close();

  /// Records accepted so far (including buffered, unflushed ones).
  uint64_t records_appended() const;

  /// Records dropped after a write failure poisoned the log: the buffered
  /// records the failing flush discarded plus every record offered since.
  /// Mirrored into the format's process-wide counter.
  uint64_t records_dropped() const;

 protected:
  /// Takes over `file` (freshly created) and buffers the file header.
  FramedLogWriter(const FramedLogFormat& format, size_t flush_bytes,
                  io::AppendFile file);
  /// Best-effort Close() (footer + fsync); errors only warn on stderr.
  ~FramedLogWriter();

  /// Enqueues one complete record frame; flushes if the buffer is full.
  void Enqueue(const std::vector<char>& frame);

 private:
  // Writes buffer_ to file_; on failure poisons the log.
  void FlushLocked() COLGRAPH_REQUIRES(mu_);

  const FramedLogFormat format_;
  const size_t flush_bytes_;

  mutable Mutex mu_;
  io::AppendFile file_ COLGRAPH_GUARDED_BY(mu_);
  std::vector<char> buffer_ COLGRAPH_GUARDED_BY(mu_);
  uint64_t records_ COLGRAPH_GUARDED_BY(mu_) = 0;
  /// Records currently in buffer_ (lost if the next flush fails).
  uint64_t buffered_records_ COLGRAPH_GUARDED_BY(mu_) = 0;
  uint64_t dropped_ COLGRAPH_GUARDED_BY(mu_) = 0;
  bool closed_ COLGRAPH_GUARDED_BY(mu_) = false;
  Status first_error_ COLGRAPH_GUARDED_BY(mu_) = Status::OK();
};

/// \brief Bounds-checked cursor over one record payload. Every read is
/// clamped by the payload length, so a corrupt length or count fails as
/// Status::Corruption instead of reading out of bounds or allocating a
/// bogus size.
class LogPayloadCursor {
 public:
  LogPayloadCursor(const char* data, size_t size, const std::string& what)
      : data_(data), size_(size), what_(what) {}

  template <typename T>
  [[nodiscard]] Status Read(T* value) {
    if (sizeof(T) > size_ - pos_) {
      return Corrupt("record payload ends mid-field");
    }
    std::memcpy(value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  /// Reads `len` bytes of text.
  [[nodiscard]] Status ReadString(uint32_t len, std::string* out) {
    if (len > size_ - pos_) return Corrupt("string length exceeds payload");
    out->assign(data_ + pos_, len);
    pos_ += len;
    return Status::OK();
  }

  /// Reads a u32 element count, rejecting one whose elements (each at
  /// least `min_element_bytes`) could not fit in the rest of the payload.
  [[nodiscard]] Status ReadCount(size_t min_element_bytes, uint32_t* n) {
    COLGRAPH_RETURN_NOT_OK(Read(n));
    if (*n > (size_ - pos_) / min_element_bytes) {
      return Corrupt("record element count exceeds payload size");
    }
    return Status::OK();
  }

  bool AtEnd() const { return pos_ == size_; }

  /// Corruption naming the log being decoded.
  Status Corrupt(const std::string& msg) const {
    return Status::Corruption(msg + " in " + what_);
  }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  const std::string& what_;
};

/// Validates a whole framed log of `format` held in `data` — header magic
/// and version, every frame's CRC and type, the footer's magic, its record
/// count, and that it is the last frame — and hands each record payload,
/// in file order, to `decode_record`, which must consume it exactly.
/// Structural damage is Status::Corruption naming `what`.
[[nodiscard]] Status DecodeFramedLog(
    const FramedLogFormat& format, const std::vector<char>& data,
    const std::string& what,
    const std::function<Status(LogPayloadCursor*)>& decode_record);

}  // namespace colgraph::obs
