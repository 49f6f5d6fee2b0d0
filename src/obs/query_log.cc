#include "obs/query_log.h"

#include "columnstore/io_util.h"
#include "obs/query_log_reader.h"
#include "util/frame.h"

namespace colgraph::obs {

namespace {

// Record payload: [u8 kind][u8 fn][u16 pad]
//   [u32 n][n × (from.base, from.occ, to.base, to.occ) u32]  edges
//   [u32 n][n × (base, occ) u32]                              isolated nodes
//   [u32 n][n × u32] graph views   [u32 n][n × u32] agg views
//   [kNumQueryPhases × u64 phase_us][u64 total_us][u64 cardinality]
void AppendRecordPayload(const QueryLogRecord& r, std::vector<char>* out) {
  AppendPod(out, static_cast<uint8_t>(r.kind));
  AppendPod(out, static_cast<uint8_t>(r.fn));
  AppendPod(out, uint16_t{0});  // pad: keeps the u32 counts aligned

  AppendPod(out, static_cast<uint32_t>(r.edges.size()));
  for (const Edge& e : r.edges) {
    AppendPod(out, e.from.base);
    AppendPod(out, e.from.occurrence);
    AppendPod(out, e.to.base);
    AppendPod(out, e.to.occurrence);
  }
  AppendPod(out, static_cast<uint32_t>(r.isolated_nodes.size()));
  for (const NodeRef& n : r.isolated_nodes) {
    AppendPod(out, n.base);
    AppendPod(out, n.occurrence);
  }
  AppendPod(out, static_cast<uint32_t>(r.graph_view_indexes.size()));
  for (const uint32_t v : r.graph_view_indexes) AppendPod(out, v);
  AppendPod(out, static_cast<uint32_t>(r.agg_view_indexes.size()));
  for (const uint32_t v : r.agg_view_indexes) AppendPod(out, v);

  for (size_t p = 0; p < kNumQueryPhases; ++p) AppendPod(out, r.phase_us[p]);
  AppendPod(out, r.total_us);
  AppendPod(out, r.result_cardinality);
}

Status ReadNode(LogPayloadCursor* c, NodeRef* n) {
  COLGRAPH_RETURN_NOT_OK(c->Read(&n->base));
  return c->Read(&n->occurrence);
}

Status ReadIndexes(LogPayloadCursor* c, std::vector<uint32_t>* out) {
  uint32_t n = 0;
  COLGRAPH_RETURN_NOT_OK(c->ReadCount(sizeof(uint32_t), &n));
  out->resize(n);
  for (uint32_t& v : *out) COLGRAPH_RETURN_NOT_OK(c->Read(&v));
  return Status::OK();
}

Status DecodeRecordPayload(LogPayloadCursor* c, QueryLogRecord* out) {
  uint8_t kind = 0, fn = 0;
  uint16_t pad = 0;
  COLGRAPH_RETURN_NOT_OK(c->Read(&kind));
  COLGRAPH_RETURN_NOT_OK(c->Read(&fn));
  COLGRAPH_RETURN_NOT_OK(c->Read(&pad));
  if (kind > static_cast<uint8_t>(QueryLogKind::kPathAgg)) {
    return c->Corrupt("unknown query kind");
  }
  if (fn > static_cast<uint8_t>(AggFn::kAvg)) {
    return c->Corrupt("unknown aggregate function");
  }
  if (pad != 0) return c->Corrupt("nonzero record padding");
  out->kind = static_cast<QueryLogKind>(kind);
  out->fn = static_cast<AggFn>(fn);

  // Self-edges are legal here: query graphs carry them as node-measure
  // constraints, and capture stores g.edges() verbatim so ToQuery() can
  // rebuild the exact original query.
  uint32_t n = 0;
  COLGRAPH_RETURN_NOT_OK(c->ReadCount(4 * sizeof(uint32_t), &n));
  out->edges.resize(n);
  for (Edge& e : out->edges) {
    COLGRAPH_RETURN_NOT_OK(ReadNode(c, &e.from));
    COLGRAPH_RETURN_NOT_OK(ReadNode(c, &e.to));
  }
  COLGRAPH_RETURN_NOT_OK(c->ReadCount(2 * sizeof(uint32_t), &n));
  out->isolated_nodes.resize(n);
  for (NodeRef& node : out->isolated_nodes) {
    COLGRAPH_RETURN_NOT_OK(ReadNode(c, &node));
  }
  COLGRAPH_RETURN_NOT_OK(ReadIndexes(c, &out->graph_view_indexes));
  COLGRAPH_RETURN_NOT_OK(ReadIndexes(c, &out->agg_view_indexes));

  for (uint64_t& us : out->phase_us) COLGRAPH_RETURN_NOT_OK(c->Read(&us));
  COLGRAPH_RETURN_NOT_OK(c->Read(&out->total_us));
  return c->Read(&out->result_cardinality);
}

}  // namespace

const char* QueryLogKindName(QueryLogKind kind) {
  switch (kind) {
    case QueryLogKind::kMatch:
      return "match";
    case QueryLogKind::kPathAgg:
      return "path_agg";
  }
  return "unknown";
}

GraphQuery QueryLogRecord::ToQuery() const {
  DirectedGraph g;
  for (const Edge& e : edges) g.AddEdge(e);
  // Isolated measured nodes must come back as nodes, not self-edges: a
  // self-edge would put a cycle in the structure and break the aggregate
  // path's DAG requirement. Resolve() turns them back into Edge{n,n}
  // catalog lookups, exactly as it did for the live query.
  for (const NodeRef& n : isolated_nodes) g.AddNode(n);
  return GraphQuery(std::move(g));
}

void AppendRecordFrame(const QueryLogRecord& record, std::vector<char>* out) {
  const size_t start = BeginFrame(kLogRecordFrame, out);
  AppendRecordPayload(record, out);
  EndFrame(start, out);
}

StatusOr<std::unique_ptr<QueryLog>> QueryLog::Open(QueryLogOptions options) {
  if (options.path.empty()) {
    return Status::InvalidArgument("query log path must not be empty");
  }
  COLGRAPH_ASSIGN_OR_RETURN(io::AppendFile file,
                            io::AppendFile::Create(options.path));
  return std::unique_ptr<QueryLog>(
      new QueryLog(std::move(options), std::move(file)));
}

void QueryLog::Append(const QueryLogRecord& record) {
  // Serialize outside the lock: the buffer enqueue is the only contended
  // part of the hot path.
  std::vector<char> frame;
  AppendRecordFrame(record, &frame);
  Enqueue(frame);
}

StatusOr<std::vector<QueryLogRecord>> DecodeQueryLog(
    const std::vector<char>& data, const std::string& what) {
  std::vector<QueryLogRecord> records;
  COLGRAPH_RETURN_NOT_OK(DecodeFramedLog(
      kQueryLogFormat, data, what, [&records](LogPayloadCursor* c) {
        records.emplace_back();
        return DecodeRecordPayload(c, &records.back());
      }));
  return records;
}

StatusOr<std::vector<QueryLogRecord>> ReadQueryLog(const std::string& path) {
  COLGRAPH_ASSIGN_OR_RETURN(std::vector<char> data, io::ReadFileBytes(path));
  return DecodeQueryLog(data, path);
}

}  // namespace colgraph::obs
