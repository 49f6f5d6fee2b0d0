#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>

#include "query/expr.h"

namespace perfbench {

using colgraph::ColGraphEngine;
using colgraph::GraphQuery;

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

void Log(const std::string& message) {
  static const int64_t origin = NowNs();
  std::fprintf(stderr, "perfbench [%7.2fs] %s\n",
               static_cast<double>(NowNs() - origin) / 1e9, message.c_str());
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  const size_t rank = std::min(
      sorted.size() - 1,
      static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size()))) -
          (q > 0 ? 1 : 0));
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<long>(rank),
                   sorted.end());
  return sorted[rank];
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit, size_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

namespace {

// The highest of p99/p90 with at least ten of `n` samples beyond it.
std::pair<double, const char*> TailQuantile(size_t n) {
  if (static_cast<double>(n) * 0.01 >= 10) return {0.99, "p99"};
  if (static_cast<double>(n) * 0.1 >= 10) return {0.9, "p90"};
  return {0, nullptr};
}

std::vector<Samples> Slice(const std::vector<Op>& ops, int64_t start_ns,
                           int64_t end_ns) {
  std::vector<Samples> slices(kWindowSlices);
  const double width =
      static_cast<double>(end_ns - start_ns) / kWindowSlices;
  for (const Op& op : ops) {
    const auto k = static_cast<int>(
        static_cast<double>(op.start_ns - start_ns) / width);
    slices[static_cast<size_t>(std::clamp(k, 0, kWindowSlices - 1))].Add(
        op.latency);
  }
  return slices;
}

}  // namespace

void Report::SetLatency(const std::string& prefix, const Samples& s,
                        const std::string& unit) {
  if (s.empty()) return;
  Set(prefix + "_p50_" + unit, s.Quantile(0.5), unit, s.size());
  const auto [q, tag] = TailQuantile(s.size());
  if (tag != nullptr) {
    Set(prefix + "_" + tag + "_" + unit, s.Quantile(q), unit, s.size());
  }
}

void Report::SetSlicedLatency(const std::string& prefix,
                              const std::vector<Op>& ops, int64_t start_ns,
                              int64_t end_ns, const std::string& unit) {
  if (ops.empty()) return;
  const std::vector<Samples> slices = Slice(ops, start_ns, end_ns);
  Samples all;
  size_t fewest = ops.size();
  for (const Samples& slice : slices) {
    fewest = std::min(fewest, slice.size());
    all.Append(slice);
  }
  // The tail percentile is chosen from the whole window, so its name does
  // not change with the machine's speed; it is a median over the slices
  // when every slice has ten samples beyond it, else the window's value.
  const auto [q, tag] = TailQuantile(ops.size());
  const bool sliced_tail = tag != nullptr && TailQuantile(fewest).first >= q;
  Samples p50;
  Samples tail;
  std::string each;
  for (const Samples& slice : slices) {
    p50.Add(slice.Quantile(0.5));
    if (sliced_tail) tail.Add(slice.Quantile(q));
    each += (each.empty() ? "[" : ", ") + Num(slice.Quantile(0.5));
  }
  AddNote(prefix + "_p50_per_slice", each + "]");
  Set(prefix + "_p50_" + unit, p50.Quantile(0.5), unit, ops.size());
  if (tag != nullptr) {
    Set(prefix + "_" + tag + "_" + unit,
        sliced_tail ? tail.Quantile(0.5) : all.Quantile(q), unit, ops.size());
  }
}

void Report::SetSlicedThroughput(const std::string& name,
                                 const std::vector<Op>& ops, int64_t start_ns,
                                 int64_t end_ns) {
  const std::vector<Samples> slices = Slice(ops, start_ns, end_ns);
  const double slice_s =
      static_cast<double>(end_ns - start_ns) / kWindowSlices / 1e9;
  Samples rates;
  std::string each;
  for (const Samples& slice : slices) {
    const double rate = static_cast<double>(slice.size()) / slice_s;
    rates.Add(rate);
    each += (each.empty() ? "[" : ", ") + Num(rate);
  }
  AddNote(name + "_per_slice", each + "]");
  Set(name, rates.Quantile(0.5), "ops/s", ops.size());
}

std::string Report::ToJson() const {
  std::string out = "{\"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed()) +
                    ", \"transport_errors\": " +
                    std::to_string(transport_errors) +
                    ", \"non_ok\": " + std::to_string(non_ok) +
                    ", \"wrong_answers\": " + std::to_string(wrong) +
                    ", \"sum_rounding_diffs\": " + std::to_string(rounding) +
                    ", \"error_rate\": " +
                    Num(attempted == 0 ? 0.0
                                       : static_cast<double>(failed()) /
                                             static_cast<double>(attempted)) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    out += (first ? "" : ", ") + Quote(name) + ": {\"value\": " +
           Num(m.value) + ", \"unit\": " + Quote(m.unit);
    if (m.samples > 0) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
    first = false;
  }
  out += "}";
  for (const auto& [key, value] : notes_) {
    out += ", " + Quote(key) + ": " + value;
  }
  return out + "}";
}

double CalibrationMs() {
  // A fixed chain of dependent multiply-adds: pure core speed, no memory.
  const int64_t start = NowNs();
  volatile uint64_t sink = 0;
  uint64_t x = 1;
  for (uint64_t i = 0; i < 20000000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  sink = x;
  (void)sink;
  return static_cast<double>(NowNs() - start) / 1e6;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string PinToCpus(int cpus) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    Die("sched_getaffinity failed");
  }
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  std::string list;
  for (int cpu = 0; cpu < CPU_SETSIZE && cpus > 0; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &chosen);
    list += (list.empty() ? "" : ",") + std::to_string(cpu);
    --cpus;
  }
  if (sched_setaffinity(0, sizeof(chosen), &chosen) != 0) {
    Die("sched_setaffinity failed");
  }
  return list;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

// --- Budget. ---

Budget::Group& Budget::GetGroup(const std::string& name) {
  auto it = groups_.find(name);
  if (it == groups_.end()) {
    group_order_.push_back(name);
    it = groups_.emplace(name, Group{}).first;
  }
  return it->second;
}

void Budget::AddRequest(const std::string& cls, int64_t total_ns,
                        const std::vector<LayerSample>& layers) {
  Group& g = GetGroup(cls);
  g.total_ns.Add(static_cast<double>(total_ns));
  for (const LayerSample& s : layers) {
    auto [it, inserted] = g.layers.try_emplace(s.layer);
    if (inserted) g.order.push_back(s.layer);
    it->second.self_ns.Add(static_cast<double>(s.ns));
    it->second.work += s.work;
    it->second.calls += s.calls;
  }
}

void Budget::AddStandalone(const std::string& group, const char* layer,
                           int64_t ns, double work) {
  Group& g = GetGroup(group);
  auto [it, inserted] = g.layers.try_emplace(layer);
  if (inserted) g.order.push_back(layer);
  it->second.self_ns.Add(static_cast<double>(ns));
  it->second.work += work;
  it->second.calls += 1;
}

Budget::Totals Budget::LayerTotals(const std::string& layer) const {
  Totals t;
  for (const auto& [name, g] : groups_) {
    const auto it = g.layers.find(layer);
    if (it == g.layers.end()) continue;
    t.calls += it->second.calls;
    t.ns += it->second.self_ns.Sum();
    t.work += it->second.work;
  }
  return t;
}

// A layer's share of a class median is its median self time *per
// request*: callers sum a layer's calls within one request (one resolve
// per leaf) into one LayerSample, so every layer has one sample per
// request and the medians are comparable with the request median.
double Budget::UnattributedShare() const {
  double weighted = 0;
  double requests = 0;
  for (const auto& [name, g] : groups_) {
    if (g.total_ns.empty()) continue;
    const double median = g.total_ns.Quantile(0.5);
    double attributed = 0;
    for (const auto& [layer, l] : g.layers) attributed += l.self_ns.Quantile(0.5);
    const double n = static_cast<double>(g.total_ns.size());
    weighted += n * (median - attributed) / median;
    requests += n;
  }
  return requests == 0 ? 0 : weighted / requests;
}

std::string Budget::ToJson() const {
  std::string out = "{";
  bool first_group = true;
  for (const std::string& name : group_order_) {
    const Group& g = groups_.at(name);
    out += (first_group ? "" : ", ") + Quote(name) + ": {";
    first_group = false;
    const bool is_class = !g.total_ns.empty();
    double median = 0;
    if (is_class) {
      median = g.total_ns.Quantile(0.5);
      out += "\"requests\": " + std::to_string(g.total_ns.size()) +
             ", \"median_us\": " + Num(median / 1e3) + ", ";
    }
    out += "\"layers\": [";
    double attributed = 0;
    bool first = true;
    for (const std::string& layer : g.order) {
      const Layer& l = g.layers.at(layer);
      const double p50 = l.self_ns.Quantile(0.5);
      attributed += p50;
      out += std::string(first ? "" : ", ") + "{\"layer\": " + Quote(layer) +
             ", \"calls\": " + std::to_string(l.calls) +
             ", \"self_us_p50\": " + Num(p50 / 1e3) +
             ", \"self_us_total\": " + Num(l.self_ns.Sum() / 1e3) +
             ", \"work\": " + Num(l.work) + ", \"ns_per_unit\": " +
             Num(l.work > 0 ? l.self_ns.Sum() / l.work : 0.0);
      if (is_class) out += ", \"share\": " + Num(p50 / median);
      out += "}";
      first = false;
    }
    out += "]";
    if (is_class) {
      out += ", \"unattributed_us\": " + Num((median - attributed) / 1e3) +
             ", \"unattributed_share\": " +
             Num((median - attributed) / median);
    }
    out += "}";
  }
  return out + "}";
}

std::string Budget::ToText() const {
  std::string out;
  char line[256];
  for (const std::string& name : group_order_) {
    const Group& g = groups_.at(name);
    const bool is_class = !g.total_ns.empty();
    const double median = is_class ? g.total_ns.Quantile(0.5) : 0;
    if (is_class) {
      std::snprintf(line, sizeof(line),
                    "class %-10s requests %-8zu median %10.1f us\n",
                    name.c_str(), g.total_ns.size(), median / 1e3);
    } else {
      std::snprintf(line, sizeof(line), "group %s\n", name.c_str());
    }
    out += line;
    std::snprintf(line, sizeof(line), "  %-26s %8s %12s %12s %8s %12s\n",
                  "layer", "calls", "self_us_p50", "self_us_tot", "share",
                  "ns/unit");
    out += line;
    double attributed = 0;
    for (const std::string& layer : g.order) {
      const Layer& l = g.layers.at(layer);
      const double p50 = l.self_ns.Quantile(0.5);
      attributed += p50;
      std::snprintf(line, sizeof(line),
                    "  %-26s %8zu %12.2f %12.1f %7.1f%% %12.2f\n",
                    layer.c_str(), static_cast<size_t>(l.calls), p50 / 1e3,
                    l.self_ns.Sum() / 1e3,
                    is_class ? 100.0 * p50 / median : 0.0,
                    l.work > 0 ? l.self_ns.Sum() / l.work : 0.0);
      out += line;
    }
    if (is_class) {
      std::snprintf(line, sizeof(line), "  %-26s %8s %12.2f %12s %7.1f%%\n",
                    "unattributed", "-", (median - attributed) / 1e3, "-",
                    100.0 * (median - attributed) / median);
      out += line;
    }
  }
  return out;
}

// --- SpanLog. ---

uint32_t SpanLog::Record(uint32_t parent, const char* name, int64_t start_ns,
                         int64_t end_ns) {
  spans_.push_back(Span{parent, name, start_ns, end_ns});
  return static_cast<uint32_t>(spans_.size());  // ids start at 1; 0 = root
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,name,start_ns,duration_ns\n");
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%u,%s,%lld,%lld\n", i + 1, s.parent, s.name,
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - s.start_ns));
  }
  return std::fclose(f) == 0;
}

void ReportLayers(const Budget& budget, const TraceCounters& c,
                  Report* report) {
  auto per = [&](const char* layer) {
    const Budget::Totals t = budget.LayerTotals(layer);
    return t.work > 0 ? t.ns / t.work : 0.0;
  };
  auto per_call = [&](const char* layer, bool work) {
    const Budget::Totals t = budget.LayerTotals(layer);
    const double v = work ? t.work : t.ns;
    return t.calls > 0 ? v / static_cast<double>(t.calls) : 0.0;
  };
  report->Set("core.ingest.ns_per_edge", per("core.ingest"), "ns/edge");
  report->Set("core.seal.ms", per_call("core.seal", false) / 1e6, "ms");
  report->Set("views.materialize.ms", per_call("views.materialize", false) / 1e6,
              "ms");
  if (budget.LayerTotals("server.start").calls > 0) {
    report->Set("server.start.ms", per_call("server.start", false) / 1e6, "ms");
  }
  report->Set("query.parse.ns_per_edge", per("query.parse"), "ns/edge");
  report->Set("query.resolve.ns_per_edge", per("query.resolve"), "ns/edge");
  report->Set("query.rewrite.ns_per_edge", per("query.rewrite"), "ns/edge");
  report->Set("query.rewrite.sources_per_edge", c.plan_sources / c.plan_edges,
              "ratio");
  report->Set("query.rewrite.view_hit_ratio",
              (c.plan_edges - c.edge_sources) / c.plan_edges, "ratio");
  report->Set("bitmap.and.ns_per_source", per("bitmap.and"), "ns/source");
  report->Set("bitmap.and.bitmaps_fetched", c.bitmaps_fetched / c.match_calls,
              "count");
  report->Set("bitmap.and.selectivity", c.matched_rows / c.candidate_rows,
              "ratio");
  report->Set("query.fetch.ns_per_value", per("query.fetch"), "ns/value");
  report->Set("query.fetch.values_per_op", per_call("query.fetch", true),
              "count");
  report->Set("query.fetch.partition_joins",
              c.partition_joins / c.match_calls, "count");
  report->Set("query.aggregate.ns_per_record_path", per("query.aggregate"),
              "ns/unit");
  report->Set("query.aggregate.agg_view_ratio",
              c.agg_elems > 0 ? c.agg_elems_from_views / c.agg_elems : 0.0,
              "ratio");
  report->Set("server.render.ns_per_byte", per("server.render"), "ns/B");
  report->Set("server.render.bytes_per_op", per_call("server.render", true),
              "B");
  report->Set("server.codec.ns_per_byte", per("server.codec"), "ns/B");
  if (c.reads > 0) {
    report->Set("server.wire.us_mean", per_call("server.wire", false) / 1e3,
                "us");
    report->Set("server.wire.bytes_per_op", c.wire_bytes / c.reads, "B");
    report->Set("server.execute.unattributed_us",
                per_call("server.execute", false) / 1e3, "us");
  }
  report->Set("request.unattributed_share", budget.UnattributedShare(),
              "ratio");
}

// --- Set-up. ---

constexpr size_t kGraphViewBudget = 20;
constexpr size_t kAggViewBudgetPerFn = 10;

Served SetUp(const std::vector<colgraph::GraphRecord>& records,
             const SetupOptions& options, SetupTimes* times) {
  *times = SetupTimes{};
  int64_t t0 = NowNs();
  auto engine = std::make_shared<ColGraphEngine>();
  for (const colgraph::GraphRecord& r : records) {
    auto added = engine->AddRecord(r);
    if (!added.ok()) Die("AddRecord: " + added.status().ToString());
    times->edges += r.elements.size();
  }
  int64_t t1 = NowNs();
  times->ingest_ns = t1 - t0;
  if (const auto s = engine->Seal(); !s.ok()) Die("Seal: " + s.ToString());
  t0 = NowNs();
  times->seal_ns = t0 - t1;
  if (!options.graph_training.empty()) {
    auto n = engine->SelectAndMaterializeGraphViews(options.graph_training,
                                                    kGraphViewBudget);
    if (!n.ok()) Die("graph views: " + n.status().ToString());
    times->graph_views = *n;
  }
  if (!options.agg_training.empty()) {
    for (const colgraph::AggFn fn : {colgraph::AggFn::kSum, colgraph::AggFn::kMax}) {
      auto n = engine->SelectAndMaterializeAggViews(options.agg_training, fn,
                                                    kAggViewBudgetPerFn);
      if (!n.ok()) Die("agg views: " + n.status().ToString());
      times->agg_views += *n;
    }
  }
  t1 = NowNs();
  times->materialize_ns = t1 - t0;
  Served served;
  served.engine = std::move(engine);
  if (options.start_daemon) {
    auto daemon = colgraph::server::Daemon::Start(served.engine, options.daemon);
    if (!daemon.ok()) Die("Daemon::Start: " + daemon.status().ToString());
    served.daemon = std::move(daemon).value();
    times->start_ns = NowNs() - t1;
  }
  return served;
}

Served SetUpRepeated(const std::vector<colgraph::GraphRecord>& records,
                     SetupOptions options, int reps, Report* report,
                     Budget* budget) {
  Samples total_s;
  std::string each;
  Served served;
  SetupTimes times;
  const std::string socket = options.daemon.socket_path;
  for (int rep = 0; rep < reps; ++rep) {
    Log("set-up " + std::to_string(rep + 1) + "/" + std::to_string(reps));
    if (served.daemon != nullptr) {
      if (const auto s = served.daemon->Drain(); !s.ok()) {
        Die("Drain: " + s.ToString());
      }
    }
    served = Served{};  // free the previous engine before building again
    if (options.start_daemon) {
      options.daemon.socket_path = socket + std::to_string(rep);
    }
    served = SetUp(records, options, &times);
    total_s.Add(times.total_s());
    each += (each.empty() ? "" : ", ") + Num(times.total_s());
    budget->AddStandalone("setup", "core.ingest",
                          times.ingest_ns, static_cast<double>(times.edges));
    budget->AddStandalone("setup", "core.seal", times.seal_ns, 1);
    budget->AddStandalone("setup", "views.materialize", times.materialize_ns,
                          static_cast<double>(times.graph_views +
                                              times.agg_views));
    if (options.start_daemon) {
      budget->AddStandalone("setup", "server.start", times.start_ns, 1);
    }
  }
  report->Set("setup_s", total_s.Quantile(0.5), "s", total_s.size());
  report->AddNote("setup_s_each", "[" + each + "]");
  report->Set("setup.graph_views", static_cast<double>(times.graph_views),
              "count");
  report->Set("setup.agg_views", static_cast<double>(times.agg_views),
              "count");
  return served;
}

std::unique_ptr<ColGraphEngine> BuildReference(
    const std::vector<colgraph::GraphRecord>& records) {
  colgraph::EngineOptions options;
  options.relation.hybrid_bitmaps = false;
  auto engine = std::make_unique<ColGraphEngine>(options);
  for (const colgraph::GraphRecord& r : records) {
    auto added = engine->AddRecord(r);
    if (!added.ok()) Die("reference AddRecord: " + added.status().ToString());
  }
  if (const auto s = engine->Seal(); !s.ok()) {
    Die("reference Seal: " + s.ToString());
  }
  return engine;
}

std::string ReferenceAnswer(const ColGraphEngine& engine,
                            const ReadRequest& request) {
  colgraph::QueryOptions options;
  options.use_views = false;
  if (request.cls == ReqClass::kAgg) {
    auto result = engine.RunAggregateQuery(
        GraphQuery::FromPath(request.leaves[0]), request.fn, options);
    if (!result.ok()) Die("reference aggregate: " + result.status().ToString());
    return colgraph::server::RenderAggResult(*result, request.fn);
  }
  colgraph::Bitmap matches =
      engine.Match(GraphQuery::FromPath(request.leaves[0]), options);
  for (size_t i = 1; i < request.leaves.size(); ++i) {
    matches = CombineLeaf(
        request.combine, matches,
        engine.Match(GraphQuery::FromPath(request.leaves[i]), options));
  }
  return colgraph::server::RenderMatchResult(matches);
}

colgraph::Bitmap CombineLeaf(ReadRequest::Combine op,
                             const colgraph::Bitmap& acc,
                             const colgraph::Bitmap& leaf) {
  switch (op) {
    case ReadRequest::Combine::kAnd:
      return colgraph::QueryEngine::AndSets(acc, leaf);
    case ReadRequest::Combine::kAndNot:
      return colgraph::QueryEngine::AndNotSets(acc, leaf);
    case ReadRequest::Combine::kSingle:
    case ReadRequest::Combine::kOr:
      break;
  }
  return colgraph::QueryEngine::OrSets(acc, leaf);
}

namespace {

std::vector<std::vector<std::string>> Tokenize(const std::string& text) {
  std::vector<std::vector<std::string>> lines;
  std::vector<std::string> tokens;
  std::string token;
  for (const char c : text) {
    if (c == ' ' || c == '\n') {
      if (!token.empty()) tokens.push_back(std::move(token));
      token.clear();
      if (c == '\n') lines.push_back(std::move(tokens)), tokens.clear();
    } else {
      token += c;
    }
  }
  if (!token.empty()) tokens.push_back(std::move(token));
  if (!tokens.empty()) lines.push_back(std::move(tokens));
  return lines;
}

// Reassociating a sum of at most a few dozen terms moves it by a few
// units in the last place; anything beyond this is a wrong value.
constexpr double kSumRoundingTolerance = 1e-12;

/// Compares the value tokens of one line from `first` on: equal strings,
/// or (SUM only) numbers within rounding. `prefix` lets the served line
/// carry extra trailing values.
Verdict CompareValues(const std::vector<std::string>& served,
                      const std::vector<std::string>& expected, size_t first,
                      bool is_sum, bool prefix) {
  if (served.size() < expected.size() ||
      (!prefix && served.size() != expected.size())) {
    return Verdict::kWrong;
  }
  Verdict verdict = Verdict::kSame;
  for (size_t i = first; i < expected.size(); ++i) {
    if (served[i] == expected[i]) continue;
    if (!is_sum) return Verdict::kWrong;
    const double a = std::strtod(served[i].c_str(), nullptr);
    const double b = std::strtod(expected[i].c_str(), nullptr);
    if (!(std::fabs(a - b) <=
          kSumRoundingTolerance * std::max(std::fabs(a), std::fabs(b)))) {
      return Verdict::kWrong;
    }
    verdict = Verdict::kRounding;
  }
  return verdict;
}

}  // namespace

Verdict CompareAnswer(const std::string& served, const std::string& expected,
                      const ReadRequest& request, size_t base_records) {
  if (served == expected) return Verdict::kSame;
  const bool prefix = base_records > 0;
  const bool is_sum =
      request.cls == ReqClass::kAgg && request.fn == colgraph::AggFn::kSum;
  if (!prefix && !is_sum) return Verdict::kWrong;
  const auto s = Tokenize(served);
  const auto e = Tokenize(expected);
  if (s.size() != e.size() || e.empty()) return Verdict::kWrong;
  if (request.cls != ReqClass::kAgg) {
    // "match N: r<id> r<id> ..." — ids ascending; base ids come first.
    if (s[0].size() < 2 || s[0][0] != "match" || e[0][0] != "match") {
      return Verdict::kWrong;
    }
    std::vector<std::string> s_ids(s[0].begin() + 2, s[0].end());
    std::vector<std::string> e_ids(e[0].begin() + 2, e[0].end());
    if (CompareValues(s_ids, e_ids, 0, false, prefix) != Verdict::kSame) {
      return Verdict::kWrong;
    }
    if (s_ids.size() > e_ids.size() &&
        std::strtoull(s_ids[e_ids.size()].c_str() + 1, nullptr, 10) <
            base_records) {
      return Verdict::kWrong;
    }
    return Verdict::kSame;
  }
  // "FN over N record(s), P path(s)" then "path [..]: v v ..." per path.
  if (s[0].size() != 6 || e[0].size() != 6 || s[0][0] != e[0][0] ||
      s[0][4] != e[0][4] || (!prefix && s[0][2] != e[0][2])) {
    return Verdict::kWrong;
  }
  Verdict verdict = Verdict::kSame;
  for (size_t line = 1; line < e.size(); ++line) {
    if (s[line].size() < 2 || s[line][0] != e[line][0] ||
        s[line][1] != e[line][1]) {
      return Verdict::kWrong;
    }
    const Verdict v = CompareValues(s[line], e[line], 2, is_sum, prefix);
    if (v == Verdict::kWrong) return v;
    if (v == Verdict::kRounding) verdict = v;
  }
  return verdict;
}

}  // namespace perfbench
