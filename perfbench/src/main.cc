// colgraph_perfbench: runs one named workload with a seed and prints every
// metric it measured, then — as the last stdout line — the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run) as one JSON
// object. See WORKLOADS.md for the workloads and metric definitions.
//
//   colgraph_perfbench --workload serve_read --seed 7 --seconds 10
//       --trace 0 --out-dir DIR [--git-sha SHA] [--source-digest HEX]
//
// The working directory receives sockets and data directories.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bitmap/simd.h"
#include "common.h"

namespace perfbench {
namespace {

// The result line's selections, BENCHMARK.json's end_to_end and
// per_layer lists. Every workload reports every name in both lists; a
// name missing from a run's report is a benchmark bug.
constexpr const char* kEndToEnd[] = {
    "setup_s", "throughput_ops", "read_p50_us", "read_p99_us", "peak_rss_mb",
};
constexpr const char* kPerLayer[] = {
    "core.ingest.ns_per_edge",
    "core.seal.ms",
    "views.materialize.ms",
    "query.parse.ns_per_edge",
    "query.resolve.ns_per_edge",
    "query.rewrite.ns_per_edge",
    "query.rewrite.sources_per_edge",
    "query.rewrite.view_hit_ratio",
    "bitmap.and.ns_per_source",
    "bitmap.and.bitmaps_fetched",
    "bitmap.and.selectivity",
    "query.fetch.ns_per_value",
    "query.fetch.values_per_op",
    "query.aggregate.ns_per_record_path",
    "server.render.ns_per_byte",
    "server.render.bytes_per_op",
    "server.codec.ns_per_byte",
};

void Usage() {
  std::fprintf(stderr,
               "usage: colgraph_perfbench --workload serve_read|analytics|"
               "ingest_mixed --seed N --seconds S --trace 0|1 --out-dir DIR "
               "[--git-sha SHA] [--source-digest HEX]\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      Usage();
    }
  }
  if (args.workload.empty() || args.seconds < 1) Usage();
  return args;
}

bool IsReleaseBuild() {
#if defined(NDEBUG) && !PERFBENCH_SANITIZED && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

std::string Fingerprint(const Args& args) {
  const char* no_simd = std::getenv("COLGRAPH_NO_SIMD");
  return std::string("{\"git_sha\": ") + Quote(args.git_sha) +
         ", \"source_digest\": " + Quote(args.source_digest) +
         ", \"compiler\": " + Quote(PERFBENCH_COMPILER) +
         ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
         ", \"release\": " + (IsReleaseBuild() ? "true" : "false") +
         ", \"cpu_model\": " + Quote(CpuModel()) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"colgraph_no_simd\": " +
         (no_simd == nullptr ? std::string("null") : Quote(no_simd)) +
         ", \"avx2_kernels\": " +
         (colgraph::simd::UsingAvx2() ? "true" : "false") +
         ", \"workload\": " + Quote(args.workload) +
         ", \"seed\": " + std::to_string(args.seed) +
         ", \"seconds\": " + std::to_string(args.seconds) +
         ", \"trace\": " + (args.trace ? "true" : "false") + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  if (!args.trace && !IsReleaseBuild()) {
    Die(std::string("refusing to report end-to-end numbers from a ") +
        PERFBENCH_BUILD_TYPE + " or sanitizer build");
  }
  Report report;
  Budget budget;
  Log("workload " + args.workload + ", seed " + std::to_string(args.seed));
  const double calibration_start_ms = CalibrationMs();
  if (args.workload == "serve_read") {
    RunServeRead(args, &report, &budget);
  } else if (args.workload == "analytics") {
    RunAnalytics(args, &report, &budget);
  } else if (args.workload == "ingest_mixed") {
    RunIngestMixed(args, &report, &budget);
  } else {
    Usage();
  }
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  report.AddNote("calibration_ms", "[" + Num(calibration_start_ms) + ", " +
                                       Num(CalibrationMs()) + "]");
  report.AddNote("fingerprint", Fingerprint(args));
  if (args.trace) report.AddNote("budget", budget.ToJson());

  const std::string doc = report.ToJson();
  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(doc.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
  if (args.trace) std::printf("%s", budget.ToText().c_str());
  std::printf("perfbench-report %s\n", doc.c_str());

  const std::vector<const char*> selected =
      args.trace ? std::vector<const char*>(std::begin(kPerLayer),
                                            std::end(kPerLayer))
                 : std::vector<const char*>(std::begin(kEndToEnd),
                                            std::end(kEndToEnd));
  std::string metrics;
  for (const char* name : selected) {
    if (!report.Has(name)) Die(std::string("metric not measured: ") + name);
    metrics += (metrics.empty() ? "" : ", ") + Quote(name) +
               ": {\"value\": " + Num(report.Value(name)) +
               ", \"unit\": " + Quote(report.Unit(name)) + "}";
  }
  const bool correct = report.wrong == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed()),
              metrics.c_str());
  std::fflush(stdout);
  // A wrong answer fails the run.
  return correct ? 0 : 1;
}
