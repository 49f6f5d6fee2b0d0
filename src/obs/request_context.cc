#include "obs/request_context.h"

#include "obs/json_writer.h"
#include "util/check.h"

namespace colgraph::obs {

const char* ServerPhaseName(ServerPhase phase) {
  switch (phase) {
    case ServerPhase::kQueueWait:
      return "queue_wait";
    case ServerPhase::kAdmission:
      return "admission";
    case ServerPhase::kDecode:
      return "decode";
    case ServerPhase::kEvaluate:
      return "evaluate";
    case ServerPhase::kEncode:
      return "encode";
    case ServerPhase::kWrite:
      return "write";
  }
  return "unknown";
}

LatencyHistogram& ServerPhaseHistogram(ServerPhase phase) {
  // One stable histogram per phase, resolved once — same shape as
  // PhaseHistogram (trace.cc).
  static LatencyHistogram* histograms[kNumServerPhases] = {
      &MetricsRegistry::Global().GetHistogram("server.phase.queue_wait_us"),
      &MetricsRegistry::Global().GetHistogram("server.phase.admission_us"),
      &MetricsRegistry::Global().GetHistogram("server.phase.decode_us"),
      &MetricsRegistry::Global().GetHistogram("server.phase.evaluate_us"),
      &MetricsRegistry::Global().GetHistogram("server.phase.encode_us"),
      &MetricsRegistry::Global().GetHistogram("server.phase.write_us"),
  };
  const size_t index = static_cast<size_t>(phase);
  COLGRAPH_DCHECK_LT(index, kNumServerPhases);
  return *histograms[index];
}

std::string RequestContext::ToJson(uint64_t snapshot_epoch) const {
  JsonWriter w;
  w.BeginObject();
  w.Key("request_id");
  w.Uint(request_id_);
  w.Key("snapshot_epoch");
  w.Uint(snapshot_epoch);
  w.Key("total_us");
  w.Uint(ElapsedUs());
  w.Key("events");
  w.BeginArray();
  for (const TraceEvent& e : trace_->events()) {
    w.BeginObject();
    w.Key("name");
    w.String(e.name);
    w.Key("start_us");
    w.Uint(e.start_us);
    w.Key("duration_us");
    w.Uint(e.duration_us);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

void RecordQueueWait(uint64_t wait_us) {
  if (MetricsEnabled()) {
    ServerPhaseHistogram(ServerPhase::kQueueWait).Record(wait_us);
  }
}

}  // namespace colgraph::obs
