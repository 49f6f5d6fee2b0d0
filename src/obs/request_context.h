// Request-scoped tracing for the serving path (DESIGN.md §15). A
// RequestContext travels with one request through the daemon: it carries
// the wire-propagated request id (or a daemon-assigned one when the client
// sent none), whether the client asked for a trace echo, and a Trace that
// collects both the server-phase spans recorded here and the engine's
// QueryPhase spans (threaded in via QueryOptions::trace) — so a single
// slow request is attributable end to end from one record.
//
// ServerPhase mirrors QueryPhase for the daemon's own pipeline: the time a
// connection sat in the accept queue, admission, frame decode, snapshot
// evaluation, response encode, and the socket write. Each phase feeds a
// process-wide histogram ("server.phase.<name>_us") exactly like
// PhaseHistogram, so the aggregate breakdown is visible without tracing a
// single request.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "obs/trace.h"

namespace colgraph::obs {

/// The fixed phases of request service inside the daemon, in pipeline
/// order. Kept as an enum (not free-form strings) like QueryPhase, so the
/// per-phase histograms are stable, cacheable and cheap.
enum class ServerPhase : uint8_t {
  kQueueWait = 0,  ///< accepted socket waiting for a worker
  kAdmission,      ///< acquiring an in-flight slot (retry loop included)
  kDecode,         ///< framed read + request decode
  kEvaluate,       ///< snapshot acquire + engine evaluation (or ingest)
  kEncode,         ///< response frame encode (trace echo included)
  kWrite,          ///< socket write of the response frame
};
inline constexpr size_t kNumServerPhases = 6;

/// Stable phase label ("queue_wait", "admission", "decode", "evaluate",
/// "encode", "write") — the trace event name and the histogram suffix.
const char* ServerPhaseName(ServerPhase phase);

/// The global registry histogram for `phase`
/// ("server.phase.<name>_us"), resolved once and cached.
LatencyHistogram& ServerPhaseHistogram(ServerPhase phase);

/// \brief Per-request identity + trace collector for the serving path.
///
/// Constructed by the connection handler before the request's first byte
/// is decoded; MarkStart() re-anchors the clock (and replaces the Trace)
/// when the request actually begins, so keep-alive idle time between
/// requests on one connection is excluded. Not thread-safe except through
/// trace() (which is): one request is handled by one worker.
class RequestContext {
 public:
  RequestContext() { MarkStart(); }

  RequestContext(const RequestContext&) = delete;
  RequestContext& operator=(const RequestContext&) = delete;

  /// Re-anchors the request start time and discards any previously
  /// recorded events. Call at the moment the request's first byte arrives.
  /// `queued_us`, the time the request already spent in the accept queue,
  /// backdates the start by that much and becomes the trace's first span,
  /// so the wait ends where decode begins and counts in the total.
  void MarkStart(uint64_t queued_us = 0) {
    start_us_ = NowMicros() - queued_us;
    trace_ = std::make_unique<Trace>(start_us_);
    if (queued_us > 0) {
      trace_->Add(ServerPhaseName(ServerPhase::kQueueWait), start_us_,
                  queued_us);
    }
    request_id_ = 0;
    trace_requested_ = false;
  }

  /// Adopts the identity the client sent in the wire context extension.
  void AdoptWireContext(uint64_t request_id, bool trace_requested) {
    request_id_ = request_id;
    trace_requested_ = trace_requested;
  }

  /// Daemon-assigned fallback id for clients that sent no context (old
  /// protocol); keeps every slow-query record keyed.
  void set_request_id(uint64_t id) { request_id_ = id; }

  uint64_t request_id() const { return request_id_; }
  /// True when the client asked for the trace to be echoed in the
  /// response (wire context flag bit 0).
  bool trace_requested() const { return trace_requested_; }

  Trace& trace() { return *trace_; }
  const Trace& trace() const { return *trace_; }

  uint64_t start_us() const { return start_us_; }
  uint64_t ElapsedUs() const { return NowMicros() - start_us_; }

  /// Renders the joined trace as one JSON object:
  /// {"request_id":...,"snapshot_epoch":...,"total_us":...,
  ///  "events":[{"name":...,"start_us":...,"duration_us":...},...]}.
  /// This is the trace echoed to the client; event start times are
  /// relative to the request start.
  std::string ToJson(uint64_t snapshot_epoch) const;

 private:
  uint64_t request_id_ = 0;
  bool trace_requested_ = false;
  uint64_t start_us_ = 0;
  // unique_ptr (not inline) so MarkStart can discard stale events: Trace
  // anchors its origin at construction and is deliberately not resettable.
  std::unique_ptr<Trace> trace_;
};

/// \brief RAII server-phase timer: records into the phase's global
/// histogram and (when `ctx` is non-null) the request's trace, exactly
/// like Span does for QueryPhase.
class ServerSpan {
 public:
  ServerSpan(ServerPhase phase, RequestContext* ctx)
      : span_(&ServerPhaseHistogram(phase),
              ctx != nullptr ? &ctx->trace() : nullptr,
              ServerPhaseName(phase)) {}

  ServerSpan(const ServerSpan&) = delete;
  ServerSpan& operator=(const ServerSpan&) = delete;

 private:
  Span span_;
};

/// Records an already-measured queue-wait interval in the queue_wait
/// histogram (the accept queue is timed across threads, so no RAII scope
/// exists). The request's trace gets the span from MarkStart.
void RecordQueueWait(uint64_t wait_us);

}  // namespace colgraph::obs
