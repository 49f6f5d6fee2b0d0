// The CRC frame (DESIGN.md §7, "CRC frame"): the one record envelope shared
// by the query log, the slow-query log and the colgraphd wire protocol.
//
//   [u8 type][u64 payload_len][u32 crc32c(payload)][payload]
//
// All integers are host byte order (little-endian on every supported
// target), like the snapshot codecs. The CRC covers the payload only; the
// 13-byte header is validated structurally by each consumer (known type,
// length within the bytes present or under a cap).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace colgraph {

/// [type][len][crc] — the fixed prefix of every frame.
inline constexpr size_t kFrameHeaderBytes =
    sizeof(uint8_t) + sizeof(uint64_t) + sizeof(uint32_t);

struct FrameHeader {
  uint8_t type = 0;
  uint64_t payload_len = 0;
  uint32_t crc = 0;
};

/// Appends `n` raw bytes to `out`.
void AppendBytes(std::vector<char>* out, const void* data, size_t n);

/// Appends the object representation of `value` to `out`.
template <typename T>
void AppendPod(std::vector<char>* out, const T& value) {
  AppendBytes(out, &value, sizeof(T));
}

/// Opens a frame of `type` at the end of `out` and returns its start
/// offset. The caller appends the payload to `out` in place, then seals the
/// frame with EndFrame — no separate payload buffer, no copy.
size_t BeginFrame(uint8_t type, std::vector<char>* out);

/// Fills in the length and CRC of the frame begun at `start`: its payload
/// is everything appended to `out` since BeginFrame.
void EndFrame(size_t start, std::vector<char>* out);

/// Wraps `payload` in a complete frame appended to `out`.
void AppendFrame(uint8_t type, const std::vector<char>& payload,
                 std::vector<char>* out);

/// Reads the header from exactly kFrameHeaderBytes at `data`. Performs no
/// validation: the type and length are the consumer's to judge.
FrameHeader ParseFrameHeader(const char* data);

/// CRC-32C of a frame payload, as the header stores it.
uint32_t FramePayloadCrc(const char* payload, size_t len);

}  // namespace colgraph
