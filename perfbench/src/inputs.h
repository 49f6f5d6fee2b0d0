// Input generation for the benchmark workloads. Everything here is the
// benchmark's own cost: it runs before (or between) timed windows, never
// inside one. All inputs are a pure function of the run seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "query/agg_fn.h"

namespace perfbench {

/// SplitMix64 step; the stream position → request draw uses it so any
/// thread can compute request i of the seeded stream without shared state.
uint64_t Mix64(uint64_t x);
/// Uniform double in [0, 1) from a 64-bit hash.
double UnitFromHash(uint64_t h);

/// Records over a fixed 1000-edge sub-universe of the NY road-network
/// stand-in (120 x 120 grid), Table 2's NY size profile (35..100 edges,
/// skewed large). `trunks[i]` is record i's trunk path, which queries
/// sample.
struct Dataset {
  colgraph::DirectedGraph universe;
  std::vector<colgraph::GraphRecord> records;
  std::vector<std::vector<colgraph::NodeRef>> trunks;
};
Dataset MakeDataset(size_t num_records, uint64_t seed);

/// A node path of a record trunk: the leaf of every generated query.
using NodePath = std::vector<colgraph::NodeRef>;

enum class ReqClass : uint8_t { kLookup = 0, kScan = 1, kAgg = 2 };
inline constexpr int kNumClasses = 3;
const char* ClassName(ReqClass c);

/// One read request of the serving workloads: its wire text plus the
/// structure it was generated from (the traced replay calls the layers on
/// these leaves directly).
struct ReadRequest {
  enum class Combine : uint8_t { kSingle, kAnd, kOr, kAndNot };
  ReqClass cls = ReqClass::kLookup;
  Combine combine = Combine::kSingle;
  colgraph::AggFn fn = colgraph::AggFn::kSum;  // kAgg only
  std::vector<NodePath> leaves;
  std::string text;
  size_t num_edges = 0;  // summed over leaves
};

/// Distinct request pools per class; requests are drawn from them.
struct RequestPools {
  std::vector<ReadRequest> lookup;  // Zipf-drawn (hot lookups repeat)
  std::vector<ReadRequest> scan;    // uniform draws
  std::vector<ReadRequest> agg;     // uniform draws
  std::vector<double> lookup_zipf_cdf;
  const ReadRequest& Get(ReqClass c, size_t i) const;
};

/// 1000 distinct lookups, 2000 scans, 2000 aggregates.
RequestPools MakeRequestPools(const Dataset& ds, uint64_t seed);

/// The seeded request stream: request `i` is a deterministic draw
/// (class by the 50/30/20 mix, then a pool entry). Returns {class, index}.
struct Draw {
  ReqClass cls;
  size_t index;
};
Draw DrawRequest(const RequestPools& pools, uint64_t seed, uint64_t i);

/// Training samples from the same distributions as the pools (fresh
/// draws), for graph-view and aggregate-view selection.
std::vector<colgraph::GraphQuery> GraphViewTraining(const Dataset& ds,
                                                    size_t n, uint64_t seed);
std::vector<colgraph::GraphQuery> AggViewTraining(const Dataset& ds, size_t n,
                                                  uint64_t seed);

/// Uniform path queries of `min_edges..max_edges` edges over record
/// trunks, all distinct, in random order.
std::vector<NodePath> DistinctPaths(const Dataset& ds, size_t n,
                                    size_t min_edges, size_t max_edges,
                                    uint64_t seed);

/// Renders a node path in the query language: "[1,2,3]".
std::string PathText(const NodePath& path);

/// One ingest batch: walk traces in the trace-loader text format plus
/// the same walks as records (for the single-relation reference).
struct IngestBatch {
  std::string text;
  std::vector<std::vector<colgraph::NodeId>> walks;
  std::vector<std::vector<double>> measures;
};
std::vector<IngestBatch> MakeIngestBatches(const Dataset& ds, size_t batches,
                                           size_t per_batch, uint64_t seed);

}  // namespace perfbench
