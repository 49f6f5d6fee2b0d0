// The serving workloads: serve_read (three closed-loop readers over
// AF_UNIX) and ingest_mixed (two readers plus a closed-loop writer into a
// data directory, then compaction, a drain and a restart, each checked).
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <sstream>
#include <thread>

#include "columnstore/dataset.h"
#include "common.h"
#include "graph/flatten.h"
#include "obs/metrics.h"
#include "query/parser.h"
#include "query/rewriter.h"
#include "server/client.h"
#include "server/protocol.h"
#include "workload/trace_loader.h"

namespace perfbench {
namespace {

namespace srv = colgraph::server;
using colgraph::Bitmap;
using colgraph::ColGraphEngine;
using colgraph::GraphQuery;

// Fig 6's NY shape: 50K records over a 1000-edge universe.
constexpr size_t kBaseRecords = 50000;
constexpr int kSetupReps = 5;
constexpr double kWarmupSeconds = 0.5;
// The writer of ingest_mixed: >= 128 batches so p90 has ten samples
// beyond it. 128 x 100 records grow the 50K base by a quarter over the
// window. Reads slow as the data grows; batches of 250 grow it by two
// thirds, reads then slow by up to half from the first slice to the
// last, and the read median follows where that climb falls in each run.
constexpr size_t kIngestBatches = 128;
constexpr size_t kIngestBatchTraces = 100;
// Pool entries per class whose answers are compared after compaction
// and again after the restart.
constexpr size_t kChecksPerClass = 150;
// The serving workloads run on two CPUs. On a shared VM a request that
// wakes a thread on an idle vCPU waits for the hypervisor to reschedule
// it, which costs hundreds of microseconds and varies with other tenants'
// load; with three clients and their three workers on two CPUs the vCPUs
// stay busy and the hand-offs are ordinary context switches.
constexpr int kServeCpus = 2;

struct ServeInputs {
  Dataset ds;
  RequestPools pools;
  SetupOptions setup;
};

ServeInputs MakeServeInputs(const Args& args, const std::string& data_dir,
                            Report* report) {
  ServeInputs in;
  in.ds = MakeDataset(kBaseRecords, args.seed);
  in.pools = MakeRequestPools(in.ds, args.seed);
  in.setup.graph_training = GraphViewTraining(in.ds, 100, args.seed);
  in.setup.agg_training = AggViewTraining(in.ds, 100, args.seed);
  in.setup.start_daemon = true;
  in.setup.daemon.socket_path = "serve.sock";
  in.setup.daemon.data_dir = data_dir;
  report->AddNote("cpus", Quote(PinToCpus(kServeCpus)));
  return in;
}

/// Oracle answers for every pool entry, indexed like the pools.
struct Answers {
  std::vector<std::string> by_class[kNumClasses];
  const std::string& Get(const Draw& d) const {
    return by_class[static_cast<int>(d.cls)][d.index];
  }
};

Answers ComputeAnswers(const ColGraphEngine& reference,
                       const RequestPools& pools) {
  Answers a;
  for (const ReqClass c : {ReqClass::kLookup, ReqClass::kScan, ReqClass::kAgg}) {
    const auto& pool = c == ReqClass::kLookup ? pools.lookup
                       : c == ReqClass::kScan ? pools.scan
                                              : pools.agg;
    for (const ReadRequest& r : pool) {
      a.by_class[static_cast<int>(c)].push_back(ReferenceAnswer(reference, r));
    }
  }
  return a;
}

struct ReaderStats {
  std::vector<Op> ops[kNumClasses];  // OK reads; latency in us
  uint64_t attempted = 0;
  uint64_t transport = 0;
  uint64_t non_ok = 0;
  uint64_t wrong = 0;
  uint64_t rounding = 0;
  uint64_t retries = 0;
};

struct ReaderShared {
  const RequestPools* pools;
  const Answers* answers;
  /// 0: answers must equal the oracle's; else reads race ingest and the
  /// oracle knows only the first base_records records.
  size_t base_records;
  uint64_t seed;
  std::atomic<uint64_t> next{0};
  std::atomic<int64_t> window_start_ns{0};
  std::atomic<bool> stop{false};
};

void ReaderLoop(const std::string& socket, ReaderShared* shared,
                ReaderStats* stats) {
  srv::ClientOptions options;
  options.socket_path = socket;
  srv::Client client(options);
  while (!shared->stop.load(std::memory_order_acquire)) {
    const uint64_t i = shared->next.fetch_add(1, std::memory_order_relaxed);
    const Draw d = DrawRequest(*shared->pools, shared->seed, i);
    const ReadRequest& req = shared->pools->Get(d.cls, d.index);
    const int64_t t0 = NowNs();
    const auto response = client.Query(req.text);
    const int64_t t1 = NowNs();
    if (t0 < shared->window_start_ns.load(std::memory_order_acquire)) {
      continue;  // warm-up
    }
    ++stats->attempted;
    stats->retries += client.attempts_made() - 1;
    if (!response.ok()) {
      ++stats->transport;
    } else if (!response->ok()) {
      ++stats->non_ok;
    } else {
      const Verdict v = CompareAnswer(response->body, shared->answers->Get(d),
                                      req, shared->base_records);
      if (v == Verdict::kWrong) {
        ++stats->wrong;
        std::fprintf(stderr, "perfbench: wrong answer for %s request: %s\n",
                     ClassName(d.cls), req.text.substr(0, 200).c_str());
      } else {
        stats->rounding += v == Verdict::kRounding;
        stats->ops[static_cast<int>(d.cls)].push_back(
            {t0, static_cast<double>(t1 - t0) / 1e3});
      }
    }
  }
}

/// Runs `readers` closed-loop clients: warm-up, then the measured window
/// until `keep_going()` turns false (checked every 10 ms). Folds their
/// tallies and latencies into `report`.
template <typename KeepGoing>
void RunReaders(const std::string& socket, ReaderShared* shared, int readers,
                KeepGoing keep_going, Report* report) {
  std::vector<ReaderStats> stats(static_cast<size_t>(readers));
  const int64_t start = NowNs() + static_cast<int64_t>(kWarmupSeconds * 1e9);
  shared->window_start_ns.store(start, std::memory_order_release);
  std::vector<std::thread> threads;
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back(ReaderLoop, socket, shared, &stats[static_cast<size_t>(r)]);
  }
  while (NowNs() < start) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  while (keep_going()) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const int64_t end = NowNs();
  shared->stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  std::vector<Op> all;
  std::vector<Op> by_class[kNumClasses];
  uint64_t retries = 0;
  for (const ReaderStats& s : stats) {
    report->attempted += s.attempted;
    report->transport_errors += s.transport;
    report->non_ok += s.non_ok;
    report->wrong += s.wrong;
    report->rounding += s.rounding;
    retries += s.retries;
    for (int c = 0; c < kNumClasses; ++c) {
      for (const Op& op : s.ops[c]) {
        if (op.start_ns >= end) continue;  // sent after the window closed
        by_class[c].push_back(op);
        all.push_back(op);
      }
    }
  }
  report->Set("window_s", static_cast<double>(end - start) / 1e9, "s");
  report->Set("client_retries", static_cast<double>(retries), "count");
  report->SetSlicedThroughput("throughput_ops", all, start, end);
  report->SetSlicedLatency("read", all, start, end, "us");
  for (int c = 0; c < kNumClasses; ++c) {
    report->SetSlicedLatency(ClassName(static_cast<ReqClass>(c)), by_class[c],
                             start, end, "us");
  }
}

/// Compares the served answers of a seeded sample of every pool with the
/// oracle `reference`, plus the record count. Counts into `report`.
void CheckServed(const std::string& socket, srv::Daemon& daemon,
                 const ColGraphEngine& reference, const RequestPools& pools,
                 uint64_t seed, const char* phase, Report* report) {
  const size_t served_total = daemon.snapshots().Acquire()->total_records();
  ++report->attempted;
  if (served_total != reference.total_records()) {
    ++report->wrong;
    std::fprintf(stderr, "perfbench: %s: %zu records served, %zu expected\n",
                 phase, served_total, reference.total_records());
  }
  srv::ClientOptions options;
  options.socket_path = socket;
  srv::Client client(options);
  for (const ReqClass c : {ReqClass::kLookup, ReqClass::kScan, ReqClass::kAgg}) {
    for (size_t k = 0; k < kChecksPerClass; ++k) {
      const auto& pool = c == ReqClass::kLookup ? pools.lookup
                         : c == ReqClass::kScan ? pools.scan
                                                : pools.agg;
      const ReadRequest& req =
          pool[Mix64(seed ^ Mix64(k * 3 + static_cast<int>(c))) % pool.size()];
      const auto response = client.Query(req.text);
      ++report->attempted;
      if (!response.ok()) {
        ++report->transport_errors;
      } else if (!response->ok()) {
        ++report->non_ok;
      } else {
        const Verdict v =
            CompareAnswer(response->body, ReferenceAnswer(reference, req), req, 0);
        report->Count(v);
        if (v == Verdict::kWrong) {
          std::fprintf(stderr, "perfbench: %s: wrong answer for %s\n", phase,
                       req.text.substr(0, 200).c_str());
        }
      }
    }
  }
}

// --- The traced replay. ---

struct Tracer {
  srv::Daemon* daemon;
  srv::Client* client;
  SpanLog* spans;
  Budget* budget;
  Report* report;
  TraceCounters counters;
};

srv::Request QueryRequest(const std::string& text) {
  srv::Request request;
  request.op = srv::RequestOp::kQuery;
  request.body = text;
  return request;
}

/// Encodes and decodes both frames of one exchange the way client and
/// daemon do (frame header, CRC, payload). Returns the frame bytes.
size_t CodecRoundTrip(const srv::Request& request,
                      const srv::Response& response) {
  std::vector<char> req_frame;
  srv::AppendRequestFrame(request, &req_frame);
  std::vector<char> resp_frame;
  srv::AppendResponseFrame(response, &resp_frame);
  for (const std::vector<char>* frame : {&req_frame, &resp_frame}) {
    srv::FrameHeader header;
    const char* payload = frame->data() + srv::kFrameHeaderBytes;
    const size_t len = frame->size() - srv::kFrameHeaderBytes;
    bool ok = srv::DecodeFrameHeader(frame->data(), &header).ok() &&
              srv::VerifyFrameCrc(header, payload, len).ok();
    if (frame == &req_frame) {
      ok = ok && srv::DecodeRequestPayload(payload, len).ok();
    } else {
      ok = ok && srv::DecodeResponsePayload(payload, len).ok();
    }
    if (!ok) Die("codec round trip failed");
  }
  return req_frame.size() + resp_frame.size();
}

/// One traced read: Client::Call, Daemon::Execute, then every layer call
/// in the order the daemon makes them, as children of one request span.
void TraceRead(Tracer* t, const ReadRequest& req, const std::string& expected,
               size_t base_records) {
  const srv::Request request = QueryRequest(req.text);
  const int64_t root_start = NowNs();
  const uint32_t root = t->spans->Record(0, ClassName(req.cls), root_start, 0);
  ++t->report->attempted;

  const Timer call_timer;
  const auto called = t->client->Call(request);
  const int64_t call_ns = call_timer.Stop(t->spans, root, "client.call");
  const Timer exec_timer;
  const srv::Response executed = t->daemon->Execute(request);
  const int64_t exec_ns = exec_timer.Stop(t->spans, root, "server.execute");
  if (!called.ok()) {
    ++t->report->transport_errors;
    return;
  }
  if (!called->ok() || !executed.ok()) {
    ++t->report->non_ok;
    return;
  }
  const Verdict called_v = CompareAnswer(called->body, expected, req, base_records);
  const Verdict executed_v =
      CompareAnswer(executed.body, expected, req, base_records);
  if (called_v == Verdict::kWrong || executed_v == Verdict::kWrong) {
    ++t->report->wrong;
    std::fprintf(stderr, "perfbench: wrong traced answer for %s\n",
                 req.text.substr(0, 200).c_str());
    return;
  }
  t->report->Count(called_v);

  const double edges = static_cast<double>(req.num_edges);
  std::vector<LayerSample> layers;
  const Timer parse_timer;
  const auto parsed = colgraph::ParseQuery(req.text);
  const int64_t parse_ns = parse_timer.Stop(t->spans, root, "query.parse");
  if (!parsed.ok()) Die("ParseQuery: " + parsed.status().ToString());

  const auto snapshot = t->daemon->snapshots().Acquire();
  const colgraph::QueryEngine engine = snapshot->query_engine();
  const colgraph::QueryOptions options;
  const bool agg = req.cls == ReqClass::kAgg;
  t->counters.tails_seen += static_cast<double>(snapshot->tails().size());
  t->counters.reads += 1;

  int64_t resolve_ns = 0, rewrite_ns = 0, and_ns = 0, aggregate_ns = 0;
  double sources = 0;
  uint64_t leaf_calls = 0;
  Bitmap matches;
  std::vector<std::pair<Bitmap, std::vector<colgraph::EdgeId>>> leaf_matches;
  for (size_t i = 0; i < req.leaves.size(); ++i) {
    const GraphQuery query = GraphQuery::FromPath(req.leaves[i]);
    const Timer resolve_timer;
    const auto resolved = engine.Resolve(query);
    resolve_ns += resolve_timer.Stop(t->spans, root, "query.resolve");
    const Timer plan_timer;
    const colgraph::MatchPlan plan =
        colgraph::PlanMatch(resolved.ids, &snapshot->views(), agg);
    const int64_t plan_ns = plan_timer.Stop(t->spans, root, "query.rewrite");
    rewrite_ns += plan_ns;
    for (const colgraph::BitmapSource& s : plan.sources) {
      if (s.kind == colgraph::BitmapSource::Kind::kEdge) ++t->counters.edge_sources;
    }
    t->counters.plan_sources += static_cast<double>(plan.sources.size());
    t->counters.plan_edges += static_cast<double>(resolved.ids.size());
    sources += static_cast<double>(plan.sources.size());
    const uint64_t fetched_before = snapshot->stats().bitmap_columns_fetched;
    const Timer match_timer;
    Bitmap leaf = engine.MatchIds(resolved.ids, options, agg);
    and_ns += match_timer.Stop(t->spans, root, "bitmap.and") - plan_ns;
    t->counters.bitmaps_fetched += static_cast<double>(
        snapshot->stats().bitmap_columns_fetched - fetched_before);
    t->counters.match_calls += 1;
    ++leaf_calls;
    if (agg) {
      const Timer agg_timer;
      const auto result = engine.RunAggregateQuery(query, req.fn, options);
      aggregate_ns += agg_timer.Stop(t->spans, root, "query.aggregate");
      if (!result.ok()) Die("RunAggregateQuery: " + result.status().ToString());
      // The fold is RunAggregateQuery minus its resolve and match.
      aggregate_ns -= resolve_ns + rewrite_ns + and_ns;
      const Timer render_timer;
      const std::string body = srv::RenderAggResult(*result, req.fn);
      const int64_t render_ns = render_timer.Stop(t->spans, root, "server.render");
      layers.push_back({"query.parse", parse_ns, edges});
      layers.push_back({"query.resolve", resolve_ns, edges});
      layers.push_back({"query.rewrite", rewrite_ns, edges});
      layers.push_back({"bitmap.and", and_ns, sources});
      layers.push_back({"query.aggregate", aggregate_ns,
                        static_cast<double>(result->records.size() *
                                            result->paths.size())});
      layers.push_back({"server.render", render_ns,
                        static_cast<double>(body.size())});
      const auto explain = engine.ExplainAggregate(query, req.fn, options);
      t->counters.agg_elems_from_views +=
          static_cast<double>(explain.path_elements_from_views);
      t->counters.agg_elems += static_cast<double>(
          explain.path_elements_from_views + explain.path_elements_atomic);
      matches = std::move(leaf);
      break;
    }
    leaf_matches.emplace_back(leaf, resolved.ids);
    if (i == 0) {
      matches = std::move(leaf);
    } else {
      const Timer combine_timer;
      matches = CombineLeaf(req.combine, matches, leaf);
      and_ns += combine_timer.Stop(t->spans, root, "bitmap.and");
    }
  }
  t->counters.matched_rows += static_cast<double>(matches.Count());
  t->counters.candidate_rows += static_cast<double>(snapshot->total_records());
  if (!agg) {
    const Timer render_timer;
    const std::string body = srv::RenderMatchResult(matches);
    const int64_t render_ns = render_timer.Stop(t->spans, root, "server.render");
    layers.push_back({"query.parse", parse_ns, edges});
    layers.push_back({"query.resolve", resolve_ns, edges, leaf_calls});
    layers.push_back({"query.rewrite", rewrite_ns, edges, leaf_calls});
    layers.push_back({"bitmap.and", and_ns, sources, leaf_calls});
    layers.push_back({"server.render", render_ns,
                      static_cast<double>(body.size())});
  }

  const Timer codec_timer;
  const size_t frame_bytes = CodecRoundTrip(request, *called);
  const int64_t codec_ns = codec_timer.Stop(t->spans, root, "server.codec");
  t->counters.wire_bytes += static_cast<double>(frame_bytes);
  layers.push_back({"server.codec", codec_ns, static_cast<double>(frame_bytes)});
  int64_t replayed = 0;
  for (const LayerSample& l : layers) replayed += l.ns;
  replayed -= codec_ns;  // codec is part of the wire, not of Execute
  layers.push_back({"server.execute", exec_ns - replayed, 1});
  layers.push_back({"server.wire", call_ns - exec_ns - codec_ns,
                    static_cast<double>(frame_bytes)});
  t->spans->Record(root, "server.wire", call_timer.start,
                   call_timer.start + call_ns - exec_ns);
  t->budget->AddRequest(ClassName(req.cls), call_ns, layers);

  // Probe, off the request path (the daemon never fetches measures): the
  // fetch layer's unit cost on this workload's match sets.
  for (const auto& [leaf, ids] : leaf_matches) {
    const Timer fetch_timer;
    const colgraph::MeasureTable table = engine.FetchMeasures(leaf, ids);
    t->budget->AddStandalone("probe", "query.fetch",
                             fetch_timer.Stop(t->spans, root, "query.fetch"),
                             static_cast<double>(table.num_values()));
  }
  t->spans->SetEnd(root, NowNs());
}

/// The daemon's STATS registry document, over the wire.
std::string RegistryStats(const std::string& socket) {
  srv::ClientOptions options;
  options.socket_path = socket;
  srv::Client client(options);
  const auto stats = client.Stats("registry");
  if (!stats.ok() || !stats->ok()) return "null";
  return stats->body;
}

// --- ingest_mixed pieces. ---

struct WriterResult {
  Samples ack_ms;
  std::vector<bool> acked;
  uint64_t attempted = 0;
  uint64_t transport = 0;
  uint64_t non_ok = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  size_t records = 0;
  size_t trace_bytes = 0;
};

void WriterLoop(const std::string& socket,
                const std::vector<IngestBatch>* batches, WriterResult* out) {
  srv::ClientOptions options;
  options.socket_path = socket;
  // An ingest is not idempotent: never retry it, and wait out a long
  // compaction instead of timing out on it.
  options.max_attempts = 1;
  options.io_timeout_ms = 120000;
  srv::Client client(options);
  out->acked.assign(batches->size(), false);
  out->start_ns = NowNs();
  for (size_t b = 0; b < batches->size(); ++b) {
    const int64_t t0 = NowNs();
    const auto response = client.Ingest((*batches)[b].text);
    const int64_t t1 = NowNs();
    ++out->attempted;
    if (!response.ok()) {
      ++out->transport;
    } else if (!response->ok()) {
      ++out->non_ok;
    } else {
      out->acked[b] = true;
      out->ack_ms.Add(static_cast<double>(t1 - t0) / 1e6);
      out->records += (*batches)[b].walks.size();
      out->trace_bytes += (*batches)[b].text.size();
    }
  }
  out->end_ns = NowNs();
}

/// The single-relation oracle after ingest: the base records, then every
/// acknowledged batch in order.
std::unique_ptr<ColGraphEngine> BuildIngestReference(
    const Dataset& ds, const std::vector<IngestBatch>& batches,
    const std::vector<bool>& acked) {
  colgraph::EngineOptions options;
  options.relation.hybrid_bitmaps = false;
  auto engine = std::make_unique<ColGraphEngine>(options);
  for (const colgraph::GraphRecord& r : ds.records) {
    if (!engine->AddRecord(r).ok()) Die("reference AddRecord failed");
  }
  for (size_t b = 0; b < batches.size(); ++b) {
    if (!acked[b]) continue;
    for (size_t k = 0; k < batches[b].walks.size(); ++k) {
      if (!engine->AddWalk(batches[b].walks[k], batches[b].measures[k]).ok()) {
        Die("reference AddWalk failed");
      }
    }
  }
  if (!engine->Seal().ok()) Die("reference Seal failed");
  return engine;
}

void ReportIngest(const WriterResult& w, const std::string& data_dir,
                  Report* report) {
  report->attempted += w.attempted;
  report->transport_errors += w.transport;
  report->non_ok += w.non_ok;
  report->Set("ingest_records_per_s",
              static_cast<double>(w.records) /
                  (static_cast<double>(w.end_ns - w.start_ns) / 1e9),
              "records/s", w.ack_ms.size());
  report->SetLatency("ingest", w.ack_ms, "ms");
  report->Set("ingest_batches", static_cast<double>(w.ack_ms.size()), "count");
  report->Set("store_bytes_per_record",
              static_cast<double>(DirBytes(data_dir)) /
                  static_cast<double>(std::max<size_t>(1, w.records)),
              "B");
}

/// After the writer: one CompactNow, an answer check, a drain and a
/// restart on the same data directory, checked again.
void CompactCheckRestart(const ServeInputs& in, Served* served,
                         const std::vector<IngestBatch>& batches,
                         const WriterResult& w, const Args& args,
                         Budget* budget, Report* report) {
  Log("final compaction and checks");
  const int64_t t0 = NowNs();
  if (const auto s = served->daemon->CompactNow(); !s.ok()) {
    Die("CompactNow: " + s.ToString());
  }
  budget->AddStandalone("ingest.final", "columnstore.compact", NowNs() - t0, 1);
  ReportIngest(w, in.setup.daemon.data_dir, report);

  const auto reference = BuildIngestReference(in.ds, batches, w.acked);
  const std::string socket = served->daemon->socket_path();
  CheckServed(socket, *served->daemon, *reference, in.pools, args.seed,
              "after compaction", report);
  if (const auto s = served->daemon->Drain(); !s.ok()) {
    Die("Drain: " + s.ToString());
  }
  served->daemon.reset();
  srv::DaemonOptions options = in.setup.daemon;
  options.socket_path = "restart.sock";
  auto restarted = srv::Daemon::Start(served->engine, options);
  if (!restarted.ok()) Die("restart: " + restarted.status().ToString());
  CheckServed(options.socket_path, **restarted, *reference, in.pools,
              args.seed + 1, "after restart", report);
  if (const auto s = (*restarted)->Drain(); !s.ok()) {
    Die("Drain: " + s.ToString());
  }
}

struct CompactionCounters {
  uint64_t compactions;
  uint64_t compaction_us;
  uint64_t compaction_bytes;
  static CompactionCounters Now() {
    auto& registry = colgraph::obs::MetricsRegistry::Global();
    return {registry.GetCounter("store.compactions").value(),
            registry.GetHistogram("store.compaction_us").total_micros(),
            registry.GetCounter("store.compaction_bytes").value()};
  }
};

/// One traced ingest: Daemon::Ingest, then its parts replayed — parse,
/// build the tail, seal it into a scratch store. The writer-lock wait is
/// what Ingest spent beyond its parts.
void TraceIngest(Tracer* t, const IngestBatch& batch, size_t index,
                 uint64_t* sealed_bytes) {
  const int64_t root_start = NowNs();
  const uint32_t root = t->spans->Record(0, "ingest", root_start, 0);
  ++t->report->attempted;
  const Timer ingest_timer;
  const auto response = t->daemon->Ingest(batch.text);
  const int64_t ingest_ns = ingest_timer.Stop(t->spans, root, "server.ingest");
  if (!response.ok()) {
    ++t->report->non_ok;
    std::fprintf(stderr, "perfbench: ingest failed: %s\n",
                 response.status().ToString().c_str());
    return;
  }
  const Timer parse_timer;
  std::istringstream in(batch.text);
  const auto traces = colgraph::ParseTraces(in);
  const int64_t parse_ns =
      parse_timer.Stop(t->spans, root, "workload.parse_traces");
  if (!traces.ok()) Die("ParseTraces: " + traces.status().ToString());
  std::vector<colgraph::GraphRecord> records;
  for (const colgraph::WalkTrace& trace : *traces) {
    colgraph::GraphRecord record;
    record.elements = colgraph::WalkToEdges(trace.walk);
    record.measures = trace.measures;
    records.push_back(std::move(record));
  }
  ColGraphEngine next = t->daemon->snapshots().Acquire()->SharedCopy();
  const Timer build_timer;
  auto tail = next.BuildTailRelation(records);
  const int64_t build_ns = build_timer.Stop(t->spans, root, "core.build_tail");
  if (!tail.ok()) Die("BuildTailRelation: " + tail.status().ToString());
  const std::string dir = "replay-store-" + std::to_string(index);
  auto store = colgraph::DatasetStore::Open(dir);
  if (!store.ok()) Die("DatasetStore::Open: " + store.status().ToString());
  const Timer seal_timer;
  const auto name = store->Seal(*tail);
  const int64_t seal_ns = seal_timer.Stop(t->spans, root, "columnstore.seal");
  if (!name.ok()) Die("DatasetStore::Seal: " + name.status().ToString());
  *sealed_bytes += DirBytes(dir);
  std::filesystem::remove_all(dir);
  const double n = static_cast<double>(records.size());
  t->budget->AddRequest(
      "ingest", ingest_ns,
      {{"workload.parse_traces", parse_ns, static_cast<double>(batch.text.size())},
       {"core.build_tail", build_ns, n},
       {"columnstore.seal", seal_ns, n},
       {"server.ingest", ingest_ns - parse_ns - build_ns - seal_ns, 1}});
  t->spans->SetEnd(root, NowNs());
}

}  // namespace

void RunServeRead(const Args& args, Report* report, Budget* budget) {
  const ServeInputs in = MakeServeInputs(args, "", report);
  Served served = SetUpRepeated(in.ds.records, in.setup,
                                args.trace ? 1 : kSetupReps, report, budget);
  const std::string socket = served.daemon->socket_path();
  Answers answers;
  {
    Log("computing reference answers");
    const auto reference = BuildReference(in.ds.records);
    answers = ComputeAnswers(*reference, in.pools);
  }
  Log("measuring");

  if (!args.trace) {
    ReaderShared shared;
    shared.pools = &in.pools;
    shared.answers = &answers;
    shared.base_records = 0;
    shared.seed = args.seed;
    const int64_t end_ns =
        NowNs() + static_cast<int64_t>((kWarmupSeconds + args.seconds) * 1e9);
    const std::string stats_before = RegistryStats(socket);
    RunReaders(socket, &shared, 3, [&] { return NowNs() < end_ns; }, report);
    report->AddNote("stats_registry_before", stats_before);
    report->AddNote("stats_registry_after", RegistryStats(socket));
  } else {
    SpanLog spans;
    srv::ClientOptions options;
    options.socket_path = socket;
    srv::Client client(options);
    Tracer tracer{served.daemon.get(), &client, &spans, budget, report, {}};
    const int64_t end_ns = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
    uint64_t i = 0;
    const int64_t start = NowNs();
    for (; NowNs() < end_ns; ++i) {
      const Draw d = DrawRequest(in.pools, args.seed, i);
      TraceRead(&tracer, in.pools.Get(d.cls, d.index), answers.Get(d),
                0);
    }
    report->Set("traced_throughput_ops",
                static_cast<double>(i) / (static_cast<double>(NowNs() - start) / 1e9),
                "ops/s", i);
    ReportLayers(*budget, tracer.counters, report);
    spans.WriteCsv(args.out_dir + "/spans-serve_read-" +
                   std::to_string(args.seed) + ".csv");
  }
  if (const auto s = served.daemon->Drain(); !s.ok()) {
    Die("Drain: " + s.ToString());
  }
}

void RunIngestMixed(const Args& args, Report* report, Budget* budget) {
  const std::string data_dir = "data";
  std::filesystem::remove_all(data_dir);
  const ServeInputs in = MakeServeInputs(args, data_dir, report);
  const std::vector<IngestBatch> batches = MakeIngestBatches(
      in.ds, kIngestBatches, kIngestBatchTraces, args.seed);
  Served served = SetUpRepeated(in.ds.records, in.setup,
                                args.trace ? 1 : kSetupReps, report, budget);
  const std::string socket = served.daemon->socket_path();
  Answers answers;
  {
    Log("computing reference answers");
    const auto reference = BuildReference(in.ds.records);
    answers = ComputeAnswers(*reference, in.pools);
  }
  Log("measuring");

  const CompactionCounters before = CompactionCounters::Now();
  WriterResult writer;
  if (!args.trace) {
    ReaderShared shared;
    shared.pools = &in.pools;
    shared.answers = &answers;
    shared.base_records = kBaseRecords;
    shared.seed = args.seed;
    std::atomic<bool> writer_done{false};
    const int64_t start =
        NowNs() + static_cast<int64_t>(kWarmupSeconds * 1e9);
    const int64_t end_ns = start + static_cast<int64_t>(args.seconds * 1e9);
    std::thread writer_thread([&] {
      while (NowNs() < start) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      WriterLoop(socket, &batches, &writer);
      writer_done.store(true, std::memory_order_release);
    });
    // Reads are measured while the writer runs, and at least --seconds.
    const std::string stats_before = RegistryStats(socket);
    RunReaders(socket, &shared, 2,
               [&] {
                 return NowNs() < end_ns ||
                        !writer_done.load(std::memory_order_acquire);
               },
               report);
    writer_thread.join();
    report->AddNote("stats_registry_before", stats_before);
    report->AddNote("stats_registry_after", RegistryStats(socket));
  } else {
    SpanLog spans;
    srv::ClientOptions options;
    options.socket_path = socket;
    srv::Client client(options);
    Tracer tracer{served.daemon.get(), &client, &spans, budget, report, {}};
    // One thread: each batch is ingested, then reads replay the stream
    // for the batch's share of the run.
    const int64_t slice_ns =
        static_cast<int64_t>(args.seconds * 1e9) /
        static_cast<int64_t>(batches.size());
    uint64_t i = 0;
    uint64_t sealed_bytes = 0;
    writer.acked.assign(batches.size(), false);
    writer.start_ns = NowNs();
    for (size_t b = 0; b < batches.size(); ++b) {
      const uint64_t failed_before = report->failed();
      TraceIngest(&tracer, batches[b], b, &sealed_bytes);
      if (report->failed() == failed_before) {
        writer.acked[b] = true;
        writer.records += batches[b].walks.size();
        writer.trace_bytes += batches[b].text.size();
      }
      const int64_t slice_end = NowNs() + slice_ns;
      for (int k = 0; k < 3 || NowNs() < slice_end; ++k, ++i) {
        const Draw d = DrawRequest(in.pools, args.seed, i);
        TraceRead(&tracer, in.pools.Get(d.cls, d.index), answers.Get(d),
                  kBaseRecords);
      }
    }
    writer.end_ns = NowNs();
    report->Set("traced_throughput_ops",
                static_cast<double>(i) /
                    (static_cast<double>(writer.end_ns - writer.start_ns) / 1e9),
                "ops/s", i);
    ReportLayers(*budget, tracer.counters, report);
    const Budget::Totals parse = budget->LayerTotals("workload.parse_traces");
    report->Set("workload.parse_traces.ns_per_byte", parse.ns / parse.work,
                "ns/B");
    const Budget::Totals build = budget->LayerTotals("core.build_tail");
    report->Set("core.build_tail.ns_per_record", build.ns / build.work,
                "ns/record");
    const Budget::Totals seal = budget->LayerTotals("columnstore.seal");
    report->Set("columnstore.seal.bytes_per_record",
                static_cast<double>(sealed_bytes) / seal.work, "B");
    const Budget::Totals ingest = budget->LayerTotals("server.ingest");
    report->Set("server.ingest.writer_wait_ms",
                ingest.ns / static_cast<double>(ingest.calls) / 1e6, "ms");
    report->Set("core.segments", tracer.counters.tails_seen / tracer.counters.reads,
                "count");
    const CompactionCounters after = CompactionCounters::Now();
    report->Set("columnstore.write_amp",
                static_cast<double>(sealed_bytes + after.compaction_bytes -
                                    before.compaction_bytes) /
                    static_cast<double>(writer.trace_bytes),
                "ratio");
    spans.WriteCsv(args.out_dir + "/spans-ingest_mixed-" +
                   std::to_string(args.seed) + ".csv");
  }
  const CompactionCounters mid = CompactionCounters::Now();
  CompactCheckRestart(in, &served, batches, writer, args, budget, report);
  const CompactionCounters after = CompactionCounters::Now();
  report->Set("columnstore.compact.count",
              static_cast<double>(after.compactions - before.compactions),
              "count");
  report->Set("columnstore.compact.background_count",
              static_cast<double>(mid.compactions - before.compactions),
              "count");
  report->Set("columnstore.compact.ms",
              static_cast<double>(after.compaction_us - before.compaction_us) /
                  1e3 /
                  static_cast<double>(std::max<uint64_t>(
                      1, after.compactions - before.compactions)),
              "ms");
}

}  // namespace perfbench
