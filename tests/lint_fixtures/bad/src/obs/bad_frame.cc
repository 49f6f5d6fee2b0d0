// Known-bad fixture for the [one-frame-codec] rule: a hand-rolled
// [type][len][crc][payload] frame outside util/frame.cc must be flagged.
#include <cstdint>
#include <vector>

#include "util/crc32.h"

void AppendPrivateFrame(const std::vector<char>& payload,
                        std::vector<char>* out) {
  const uint32_t crc = colgraph::Crc32c(payload.data(), payload.size());
  out->push_back(0);
  out->insert(out->end(), reinterpret_cast<const char*>(&crc),
              reinterpret_cast<const char*>(&crc) + sizeof(crc));
}
