#include "core/replay.h"

#include <memory>

#include "query/engine.h"
#include "util/thread_pool.h"

namespace colgraph {

namespace {

// A maximal run of consecutive log records sharing (kind, fn) — replayed
// as one batch, preserving log order overall.
struct Run {
  size_t begin = 0;
  size_t end = 0;
  obs::QueryLogKind kind = obs::QueryLogKind::kMatch;
  AggFn fn = AggFn::kSum;
};

void RecordOutcome(const ReplayReport::Mismatch& mismatch, bool matches,
                   ReplayReport* report) {
  if (matches) return;
  ++report->cardinality_mismatches;
  if (report->mismatches.size() < ReplayReport::kMaxReportedMismatches) {
    report->mismatches.push_back(mismatch);
  }
}

}  // namespace

StatusOr<ReplayReport> ReplayQueryLog(
    const ColGraphEngine& engine,
    const std::vector<obs::QueryLogRecord>& records,
    const ReplayOptions& options) {
  ReplayReport report;

  // Bind the evaluator to every segment but without the engine's query
  // log: replay must read a workload, not append a second copy of it.
  const QueryEngine qe(&engine.relation(), &engine.catalog(), &engine.views(),
                       /*query_log=*/nullptr, &engine.segments());
  QueryOptions query_options;
  query_options.use_views = options.use_views;
  CancellationToken deadline;
  if (options.timeout_ms > 0) {
    deadline.SetTimeout(options.timeout_ms);
    query_options.cancel = &deadline;
  }

  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(options.num_threads);
  }

  std::vector<Run> runs;
  for (size_t i = 0; i < records.size(); ++i) {
    if (!runs.empty() && runs.back().kind == records[i].kind &&
        (records[i].kind == obs::QueryLogKind::kMatch ||
         runs.back().fn == records[i].fn)) {
      runs.back().end = i + 1;
      continue;
    }
    runs.push_back(Run{i, i + 1, records[i].kind, records[i].fn});
  }

  for (const Run& run : runs) {
    std::vector<GraphQuery> queries;
    queries.reserve(run.end - run.begin);
    for (size_t i = run.begin; i < run.end; ++i) {
      queries.push_back(records[i].ToQuery());
    }

    if (run.kind == obs::QueryLogKind::kMatch) {
      COLGRAPH_ASSIGN_OR_RETURN(
          const std::vector<MeasureTable> results,
          qe.EvaluateBatch(queries, query_options, pool.get()));
      for (size_t i = 0; i < results.size(); ++i) {
        const size_t index = run.begin + i;
        const uint64_t replayed = results[i].num_rows();
        RecordOutcome({index, records[index].result_cardinality, replayed},
                      replayed == records[index].result_cardinality, &report);
      }
      report.match_queries += results.size();
    } else {
      COLGRAPH_ASSIGN_OR_RETURN(
          const std::vector<PathAggResult> results,
          qe.EvaluatePathAggBatch(queries, run.fn, query_options, pool.get()));
      for (size_t i = 0; i < results.size(); ++i) {
        const size_t index = run.begin + i;
        const uint64_t replayed = results[i].records.size();
        RecordOutcome({index, records[index].result_cardinality, replayed},
                      replayed == records[index].result_cardinality, &report);
      }
      report.path_agg_queries += results.size();
    }
    report.queries_replayed += run.end - run.begin;
  }
  return report;
}

}  // namespace colgraph
