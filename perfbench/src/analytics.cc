// The analytics workload: one caller thread runs RunGraphQuery (match and
// fetch measures) over all-distinct uniform path queries against a
// dataset several times the size of the last-level cache. No server, no
// parse and no repeated query.
#include <cstring>

#include "common.h"
#include "query/parser.h"
#include "query/rewriter.h"
#include "server/protocol.h"

namespace perfbench {
namespace {

namespace srv = colgraph::server;
using colgraph::ColGraphEngine;
using colgraph::GraphQuery;

constexpr size_t kRecords = 200000;
constexpr int kSetupReps = 3;
constexpr size_t kMinEdges = 15;
constexpr size_t kMaxEdges = 40;
// Distinct queries generated up front; a run that would exhaust them is
// misconfigured and stops rather than repeat a query.
constexpr size_t kQueryPool = 30000;
constexpr size_t kWarmupQueries = 100;
// Every n-th traced query also probes the aggregate fold.
constexpr uint64_t kAggProbeEvery = 8;

/// FNV-1a over the bytes of a measure table (ids, edges, value bits).
uint64_t Digest(const colgraph::MeasureTable& t) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  };
  mix(t.records.data(), t.records.size() * sizeof(t.records[0]));
  mix(t.edges.data(), t.edges.size() * sizeof(t.edges[0]));
  for (const auto& column : t.columns) {
    mix(column.data(), column.size() * sizeof(double));
  }
  return h;
}

/// Compares the digests of the answers a run produced (0 = the query
/// failed, already counted) with the oracle's. The oracle is built only
/// now, after the served engine is gone, so the two never share memory.
void CheckDigests(Dataset* ds, Served* served, const std::vector<NodePath>& paths,
                  const std::vector<uint64_t>& digests, Report* report) {
  *served = Served{};
  Log("building the reference");
  const auto reference = BuildReference(ds->records);
  *ds = Dataset{};
  Log("checking " + std::to_string(digests.size()) + " answers");
  colgraph::QueryOptions options;
  options.use_views = false;
  for (size_t i = 0; i < digests.size(); ++i) {
    if (digests[i] == 0) continue;
    const auto table =
        reference->RunGraphQuery(GraphQuery::FromPath(paths[i]), options);
    if (!table.ok()) Die("reference RunGraphQuery: " + table.status().ToString());
    if (Digest(*table) != digests[i]) {
      ++report->wrong;
      std::fprintf(stderr, "perfbench: wrong answer for %s\n",
                   PathText(paths[i]).c_str());
    }
  }
}

}  // namespace

void RunAnalytics(const Args& args, Report* report, Budget* budget) {
  Log("generating inputs");
  Dataset ds = MakeDataset(kRecords, args.seed);
  Log("generating queries");
  std::vector<NodePath> paths =
      DistinctPaths(ds, kQueryPool + kWarmupQueries, kMinEdges, kMaxEdges,
                    args.seed);
  // One caller thread, kept on one CPU so it does not migrate between
  // caches mid-run.
  report->AddNote("cpus", Quote(PinToCpus(1)));
  SetupOptions setup;
  {
    std::vector<NodePath> training =
        DistinctPaths(ds, 100, kMinEdges, kMaxEdges, Mix64(args.seed));
    for (const NodePath& p : training) {
      setup.graph_training.push_back(GraphQuery::FromPath(p));
    }
  }
  Served served = SetUpRepeated(ds.records, setup,
                                args.trace ? 1 : kSetupReps, report, budget);
  const ColGraphEngine& engine = *served.engine;
  std::vector<uint64_t> digests;

  for (size_t i = kQueryPool; i < paths.size(); ++i) {
    if (!engine.RunGraphQuery(GraphQuery::FromPath(paths[i])).ok()) {
      Die("warm-up query failed");
    }
  }

  Log("measuring");
  const int64_t end_ns = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  if (!args.trace) {
    std::vector<Op> ops;
    const int64_t start = NowNs();
    size_t n = 0;
    for (; NowNs() < end_ns; ++n) {
      if (n == kQueryPool) Die("query pool exhausted; raise kQueryPool");
      const GraphQuery query = GraphQuery::FromPath(paths[n]);
      const int64_t t0 = NowNs();
      const auto table = engine.RunGraphQuery(query);
      const int64_t t1 = NowNs();
      ++report->attempted;
      if (!table.ok()) {
        ++report->non_ok;
        digests.push_back(0);
        continue;
      }
      ops.push_back({t0, static_cast<double>(t1 - t0) / 1e3});
      digests.push_back(Digest(*table));
    }
    const int64_t end = NowNs();
    CheckDigests(&ds, &served, paths, digests, report);
    report->Set("window_s", static_cast<double>(end - start) / 1e9, "s");
    report->SetSlicedThroughput("throughput_ops", ops, start, end);
    report->SetSlicedLatency("read", ops, start, end, "us");
    report->SetSlicedLatency("graphq", ops, start, end, "us");
    return;
  }

  // Traced replay. The request is replayed as the calls RunGraphQuery
  // makes — resolve, rewrite (PlanMatch), match, fetch — each timed, in
  // that order, while its data is still cold: the dataset is larger than
  // the cache, so a replay after the real call would time warm layers.
  // RunGraphQuery itself runs afterwards for the answer check (its warm
  // repeat time is recorded as a span). Parse, render, codec and the
  // aggregate fold are off this workload's request path; they are probed
  // on the same queries for their unit costs only.
  SpanLog spans;
  TraceCounters c;
  const colgraph::QueryEngine qe = engine.query_engine();
  const colgraph::QueryOptions options;
  const int64_t start = NowNs();
  uint64_t n = 0;
  for (; NowNs() < end_ns; ++n) {
    if (n == kQueryPool) Die("query pool exhausted; raise kQueryPool");
    const GraphQuery query = GraphQuery::FromPath(paths[n]);
    const int64_t root_start = NowNs();
    const uint32_t root = spans.Record(0, "graphq", root_start, 0);
    ++report->attempted;
    const Timer resolve_timer;
    const auto resolved = qe.Resolve(query);
    const int64_t resolve_ns = resolve_timer.Stop(&spans, root, "query.resolve");
    const Timer plan_timer;
    const colgraph::MatchPlan plan =
        colgraph::PlanMatch(resolved.ids, &engine.views(), false);
    const int64_t plan_ns = plan_timer.Stop(&spans, root, "query.rewrite");
    const uint64_t fetched_before = engine.stats().bitmap_columns_fetched;
    const Timer match_timer;
    const colgraph::Bitmap matches = qe.MatchIds(resolved.ids, options, false);
    const int64_t and_ns = match_timer.Stop(&spans, root, "bitmap.and") - plan_ns;
    const uint64_t fetched_after = engine.stats().bitmap_columns_fetched;
    const uint64_t joins_before = engine.stats().partition_joins;
    const Timer fetch_timer;
    const colgraph::MeasureTable fetched = qe.FetchMeasures(matches, resolved.ids);
    const int64_t fetch_ns = fetch_timer.Stop(&spans, root, "query.fetch");
    const int64_t total_ns = NowNs() - root_start;
    c.partition_joins +=
        static_cast<double>(engine.stats().partition_joins - joins_before);
    for (const colgraph::BitmapSource& s : plan.sources) {
      if (s.kind == colgraph::BitmapSource::Kind::kEdge) ++c.edge_sources;
    }
    c.plan_sources += static_cast<double>(plan.sources.size());
    c.plan_edges += static_cast<double>(resolved.ids.size());
    c.bitmaps_fetched += static_cast<double>(fetched_after - fetched_before);
    c.matched_rows += static_cast<double>(matches.Count());
    c.candidate_rows += static_cast<double>(engine.total_records());
    c.match_calls += 1;

    const Timer repeat_timer;
    const auto table = engine.RunGraphQuery(query);
    repeat_timer.Stop(&spans, root, "graphq.repeat");
    digests.push_back(table.ok() ? Digest(*table) : 0);
    if (!table.ok()) {
      ++report->non_ok;
      continue;
    }
    if (Digest(fetched) != digests.back()) {
      ++report->wrong;
      std::fprintf(stderr, "perfbench: replayed layers disagree with "
                   "RunGraphQuery for %s\n", PathText(paths[n]).c_str());
    }
    const double edges = static_cast<double>(paths[n].size() - 1);
    budget->AddRequest(
        "graphq", total_ns,
        {{"query.resolve", resolve_ns, edges},
         {"query.rewrite", plan_ns, edges},
         {"bitmap.and", and_ns, static_cast<double>(plan.sources.size())},
         {"query.fetch", fetch_ns, static_cast<double>(fetched.num_values())}});

    // Probes.
    const std::string text = PathText(paths[n]);
    const Timer parse_timer;
    const auto parsed = colgraph::ParseQuery(text);
    budget->AddStandalone("probe", "query.parse",
                          parse_timer.Stop(&spans, root, "query.parse"), edges);
    if (!parsed.ok()) Die("ParseQuery: " + parsed.status().ToString());
    const Timer render_timer;
    srv::Response response;
    response.body = srv::RenderMatchResult(matches);
    budget->AddStandalone("probe", "server.render",
                          render_timer.Stop(&spans, root, "server.render"),
                          static_cast<double>(response.body.size()));
    srv::Request request;
    request.op = srv::RequestOp::kQuery;
    request.body = text;
    const Timer codec_timer;
    std::vector<char> req_frame;
    std::vector<char> resp_frame;
    srv::AppendRequestFrame(request, &req_frame);
    srv::AppendResponseFrame(response, &resp_frame);
    const bool decoded =
        srv::DecodeRequestPayload(req_frame.data() + srv::kFrameHeaderBytes,
                                  req_frame.size() - srv::kFrameHeaderBytes)
            .ok() &&
        srv::DecodeResponsePayload(resp_frame.data() + srv::kFrameHeaderBytes,
                                   resp_frame.size() - srv::kFrameHeaderBytes)
            .ok();
    budget->AddStandalone("probe", "server.codec",
                          codec_timer.Stop(&spans, root, "server.codec"),
                          static_cast<double>(req_frame.size() + resp_frame.size()));
    if (!decoded) Die("codec round trip failed");
    if (n % kAggProbeEvery == 0) {
      const Timer agg_timer;
      const auto agg = engine.RunAggregateQuery(query, colgraph::AggFn::kSum);
      int64_t agg_ns = agg_timer.Stop(&spans, root, "query.aggregate");
      if (!agg.ok()) Die("RunAggregateQuery: " + agg.status().ToString());
      const Timer match_agg_timer;
      (void)qe.MatchIds(resolved.ids, options, true);
      agg_ns -= resolve_ns + match_agg_timer.Stop(&spans, root, "bitmap.and");
      budget->AddStandalone(
          "probe", "query.aggregate", agg_ns,
          static_cast<double>(agg->records.size() * agg->paths.size()));
    }
    spans.SetEnd(root, NowNs());
  }
  CheckDigests(&ds, &served, paths, digests, report);
  report->Set("traced_throughput_ops",
              static_cast<double>(n) / (static_cast<double>(NowNs() - start) / 1e9),
              "ops/s", n);

  ReportLayers(*budget, c, report);
  spans.WriteCsv(args.out_dir + "/spans-analytics-" + std::to_string(args.seed) +
                 ".csv");
}

}  // namespace perfbench
