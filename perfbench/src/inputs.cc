#include "inputs.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <unordered_set>

#include "util/random.h"
#include "workload/base_graphs.h"
#include "workload/record_generator.h"

namespace perfbench {

using colgraph::AggFn;
using colgraph::GraphQuery;
using colgraph::NodeRef;
using colgraph::Rng;

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double UnitFromHash(uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

// The edge universe is fixed: it is the schema of the collection (which
// road segments exist), and every run should see the same one. Records
// and requests are drawn from the run seed.
constexpr uint64_t kUniverseSeed = 1;

Dataset MakeDataset(size_t num_records, uint64_t seed) {
  Dataset ds;
  const colgraph::DirectedGraph base = colgraph::MakeRoadNetwork(120, 120);
  auto universe = colgraph::SelectEdgeUniverse(base, 1000, kUniverseSeed);
  if (!universe.ok()) {
    std::fprintf(stderr, "universe selection failed: %s\n",
                 universe.status().ToString().c_str());
    std::exit(2);
  }
  ds.universe = std::move(universe).value();
  colgraph::RecordGenOptions options;
  options.min_edges = 35;
  options.max_edges = 100;
  options.size_draws = 3;
  // Fixed-size chunks, each from its own seeded generator, generated in
  // parallel and concatenated in chunk order: the dataset depends on the
  // seed only, not on the thread count.
  constexpr size_t kChunk = 25000;
  const size_t chunks = (num_records + kChunk - 1) / kChunk;
  ds.records.resize(num_records);
  ds.trunks.resize(num_records);
  std::atomic<size_t> next_chunk{0};
  auto work = [&] {
    for (size_t c; (c = next_chunk.fetch_add(1)) < chunks;) {
      colgraph::WalkRecordGenerator generator(&ds.universe, options,
                                              Mix64(seed ^ Mix64(c)));
      for (size_t i = c * kChunk; i < std::min(num_records, (c + 1) * kChunk);
           ++i) {
        ds.records[i] = generator.Next(&ds.trunks[i]);
        ds.records[i].id = i;
      }
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 1; t < std::min(4u, std::thread::hardware_concurrency());
       ++t) {
    threads.emplace_back(work);
  }
  work();
  for (std::thread& t : threads) t.join();
  return ds;
}

const char* ClassName(ReqClass c) {
  switch (c) {
    case ReqClass::kLookup:
      return "lookup";
    case ReqClass::kScan:
      return "scan";
    case ReqClass::kAgg:
      return "agg";
  }
  return "?";
}

std::string PathText(const NodePath& path) {
  std::string out = "[";
  for (size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(path[i].base);
    out.append(path[i].occurrence, '\'');
  }
  out += "]";
  return out;
}

namespace {

/// A random subpath of a random record trunk with at least `min_edges`
/// edges: its length is uniform in [min_edges, max_edges], capped by the
/// trunk, and its position uniform along the trunk.
NodePath SamplePath(const Dataset& ds, Rng* rng, size_t min_edges,
                    size_t max_edges) {
  for (int attempt = 0; attempt < 4096; ++attempt) {
    const auto& trunk = ds.trunks[rng->Uniform(0, ds.trunks.size() - 1)];
    if (trunk.size() < min_edges + 1) continue;
    const size_t edges =
        rng->Uniform(min_edges, std::min(max_edges, trunk.size() - 1));
    const size_t start = rng->Uniform(0, trunk.size() - 1 - edges);
    return NodePath(trunk.begin() + static_cast<long>(start),
                    trunk.begin() + static_cast<long>(start + edges + 1));
  }
  std::fprintf(stderr, "no record trunk has %zu edges\n", min_edges);
  std::exit(2);
}

size_t Edges(const ReadRequest& r) {
  size_t n = 0;
  for (const NodePath& leaf : r.leaves) n += leaf.size() - 1;
  return n;
}

// Lookup: a conjunction of overlapping windows of one long record trunk,
// at least `target` edges in all. The planning layers see every edge of
// every window while the answer stays selective: only records that
// contain the windows' union match.
ReadRequest MakeLookup(const Dataset& ds, Rng* rng, size_t target) {
  ReadRequest r;
  r.cls = ReqClass::kLookup;
  r.combine = ReadRequest::Combine::kAnd;
  const NodePath trunk = SamplePath(ds, rng, 30, 30);
  size_t total = 0;
  while (total < target) {
    const size_t len = rng->Uniform(15, 30);
    const size_t start = rng->Uniform(0, trunk.size() - 1 - len);
    r.leaves.emplace_back(trunk.begin() + static_cast<long>(start),
                          trunk.begin() + static_cast<long>(start + len + 1));
    total += len;
  }
  for (size_t i = 0; i < r.leaves.size(); ++i) {
    if (i > 0) r.text += " AND ";
    r.text += PathText(r.leaves[i]);
  }
  return r;
}

// Scan: a short, broad path; a third combine two such paths.
ReadRequest MakeScan(const Dataset& ds, Rng* rng) {
  ReadRequest r;
  r.cls = ReqClass::kScan;
  r.leaves.push_back(SamplePath(ds, rng, 3, 8));
  r.text = PathText(r.leaves[0]);
  const uint64_t shape = rng->Uniform(0, 5);
  if (shape >= 4) {
    r.combine = shape == 4 ? ReadRequest::Combine::kOr
                           : ReadRequest::Combine::kAndNot;
    r.leaves.push_back(SamplePath(ds, rng, 3, 8));
    r.text += shape == 4 ? " OR " : " AND NOT ";
    r.text += PathText(r.leaves[1]);
  }
  return r;
}

// Agg: SUM or MAX along an 8..25-edge path (the Fig 7 shape).
ReadRequest MakeAgg(const Dataset& ds, Rng* rng) {
  ReadRequest r;
  r.cls = ReqClass::kAgg;
  r.fn = rng->Bernoulli(0.5) ? AggFn::kSum : AggFn::kMax;
  r.leaves.push_back(SamplePath(ds, rng, 8, 25));
  r.text = std::string(colgraph::AggFnName(r.fn)) + " " +
           PathText(r.leaves[0]);
  return r;
}

/// `n` requests with distinct texts; `make(i)` draws a candidate for
/// pool index i.
template <typename Make>
std::vector<ReadRequest> DistinctPool(size_t n, Make make) {
  std::vector<ReadRequest> pool;
  std::unordered_set<std::string> seen;
  while (pool.size() < n) {
    ReadRequest r = make(pool.size());
    if (!seen.insert(r.text).second) continue;
    r.num_edges = Edges(r);
    pool.push_back(std::move(r));
  }
  return pool;
}

// Fig 8's skew (theta = 1.2), over the lookup pool.
constexpr double kZipfTheta = 1.2;

// The edge target of the lookup at Zipf rank i (0 = hottest): 100..300,
// spread by the golden-ratio sequence, the same for every seed. Under
// this skew the ten hottest lookups take half of all lookups, so sizes
// drawn from the seed would make the lookup median follow the seed.
size_t LookupTarget(size_t i) {
  const double u =
      std::fmod(0.5 + static_cast<double>(i) * 0.6180339887498949, 1.0);
  return 100 + static_cast<size_t>(u * 200.0);
}

}  // namespace

const ReadRequest& RequestPools::Get(ReqClass c, size_t i) const {
  switch (c) {
    case ReqClass::kLookup:
      return lookup[i];
    case ReqClass::kScan:
      return scan[i];
    case ReqClass::kAgg:
      break;
  }
  return agg[i];
}

RequestPools MakeRequestPools(const Dataset& ds, uint64_t seed) {
  RequestPools pools;
  Rng rng(Mix64(seed ^ 0x706f6f6c));  // "pool"
  pools.lookup = DistinctPool(
      1000, [&](size_t i) { return MakeLookup(ds, &rng, LookupTarget(i)); });
  pools.scan = DistinctPool(2000, [&](size_t) { return MakeScan(ds, &rng); });
  pools.agg = DistinctPool(2000, [&](size_t) { return MakeAgg(ds, &rng); });
  double sum = 0;
  for (size_t k = 1; k <= pools.lookup.size(); ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k), kZipfTheta);
    pools.lookup_zipf_cdf.push_back(sum);
  }
  for (double& c : pools.lookup_zipf_cdf) c /= sum;
  return pools;
}

Draw DrawRequest(const RequestPools& pools, uint64_t seed, uint64_t i) {
  const uint64_t h = Mix64(Mix64(seed) ^ Mix64(i));
  const double u = UnitFromHash(h);
  const double v = UnitFromHash(Mix64(h));
  if (u < 0.5) {
    const auto& cdf = pools.lookup_zipf_cdf;
    const size_t k = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), v) - cdf.begin());
    return {ReqClass::kLookup, std::min(k, cdf.size() - 1)};
  }
  if (u < 0.8) {
    return {ReqClass::kScan, static_cast<size_t>(v * pools.scan.size())};
  }
  return {ReqClass::kAgg, static_cast<size_t>(v * pools.agg.size())};
}

std::vector<GraphQuery> GraphViewTraining(const Dataset& ds, size_t n,
                                          uint64_t seed) {
  Rng rng(Mix64(seed ^ 0x67726168));  // "grah"
  std::vector<GraphQuery> out;
  while (out.size() < n) {
    const ReadRequest r =
        out.size() % 2 == 0 ? MakeLookup(ds, &rng, rng.Uniform(100, 300))
                            : MakeScan(ds, &rng);
    for (const NodePath& leaf : r.leaves) {
      out.push_back(GraphQuery::FromPath(leaf));
      if (out.size() == n) break;
    }
  }
  return out;
}

std::vector<GraphQuery> AggViewTraining(const Dataset& ds, size_t n,
                                        uint64_t seed) {
  Rng rng(Mix64(seed ^ 0x61676776));  // "aggv"
  std::vector<GraphQuery> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(GraphQuery::FromPath(MakeAgg(ds, &rng).leaves[0]));
  }
  return out;
}

std::vector<NodePath> DistinctPaths(const Dataset& ds, size_t n,
                                    size_t min_edges, size_t max_edges,
                                    uint64_t seed) {
  Rng rng(Mix64(seed ^ 0x70617468));  // "path"
  std::vector<NodePath> out;
  std::unordered_set<std::string> seen;
  for (size_t attempt = 0; out.size() < n; ++attempt) {
    if (attempt > 20 * n) {
      std::fprintf(stderr, "too few distinct paths of %zu..%zu edges\n",
                   min_edges, max_edges);
      std::exit(2);
    }
    NodePath p = SamplePath(ds, &rng, min_edges, max_edges);
    if (seen.insert(PathText(p)).second) out.push_back(std::move(p));
  }
  // A large pool nearly exhausts the distinct paths, so the later draws
  // are the rarer, cheaper ones; shuffled, a run that takes a prefix
  // sees no trend from first query to last.
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.Uniform(0, i - 1)]);
  }
  return out;
}

std::vector<IngestBatch> MakeIngestBatches(const Dataset& ds, size_t batches,
                                           size_t per_batch, uint64_t seed) {
  Rng rng(Mix64(seed ^ 0x696e6773));  // "ings"
  std::vector<IngestBatch> out(batches);
  char buffer[40];
  for (IngestBatch& batch : out) {
    for (size_t i = 0; i < per_batch; ++i) {
      // A walk is a whole trunk or a long prefix of one: the shape of the
      // records already stored, arriving as the trace format.
      const auto& trunk = ds.trunks[rng.Uniform(0, ds.trunks.size() - 1)];
      const size_t nodes = std::max<size_t>(
          2, trunk.size() - rng.Uniform(0, trunk.size() / 4));
      std::vector<colgraph::NodeId> walk;
      std::vector<double> measures;
      for (size_t k = 0; k < nodes; ++k) {
        walk.push_back(trunk[k].base);
        batch.text += (k > 0 ? " " : "") + std::to_string(trunk[k].base);
      }
      batch.text += " |";
      for (size_t k = 0; k + 1 < nodes; ++k) {
        measures.push_back(rng.UniformReal(0.0, 100.0));
        std::snprintf(buffer, sizeof(buffer), " %.17g", measures.back());
        batch.text += buffer;
      }
      batch.text += "\n";
      batch.walks.push_back(std::move(walk));
      batch.measures.push_back(std::move(measures));
    }
  }
  return out;
}

}  // namespace perfbench
