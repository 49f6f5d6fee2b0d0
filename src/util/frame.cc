#include "util/frame.h"

#include "util/crc32.h"

namespace colgraph {

namespace {
constexpr size_t kLenOffset = sizeof(uint8_t);
constexpr size_t kCrcOffset = kLenOffset + sizeof(uint64_t);
}  // namespace

void AppendBytes(std::vector<char>* out, const void* data, size_t n) {
  if (n == 0) return;  // out->data() may still be null; memcpy is nonnull
  const size_t old = out->size();
  out->resize(old + n);
  std::memcpy(out->data() + old, data, n);
}

size_t BeginFrame(uint8_t type, std::vector<char>* out) {
  const size_t start = out->size();
  out->resize(start + kFrameHeaderBytes);
  std::memcpy(out->data() + start, &type, sizeof(type));
  return start;
}

void EndFrame(size_t start, std::vector<char>* out) {
  char* frame = out->data() + start;
  const uint64_t len = out->size() - start - kFrameHeaderBytes;
  const uint32_t crc =
      FramePayloadCrc(frame + kFrameHeaderBytes, static_cast<size_t>(len));
  std::memcpy(frame + kLenOffset, &len, sizeof(len));
  std::memcpy(frame + kCrcOffset, &crc, sizeof(crc));
}

void AppendFrame(uint8_t type, const std::vector<char>& payload,
                 std::vector<char>* out) {
  const size_t start = BeginFrame(type, out);
  AppendBytes(out, payload.data(), payload.size());
  EndFrame(start, out);
}

FrameHeader ParseFrameHeader(const char* data) {
  FrameHeader header;
  std::memcpy(&header.type, data, sizeof(header.type));
  std::memcpy(&header.payload_len, data + kLenOffset,
              sizeof(header.payload_len));
  std::memcpy(&header.crc, data + kCrcOffset, sizeof(header.crc));
  return header;
}

uint32_t FramePayloadCrc(const char* payload, size_t len) {
  return Crc32c(payload, len);
}

}  // namespace colgraph
