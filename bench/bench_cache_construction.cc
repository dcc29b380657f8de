// Figure 4/5 — "Comparison of cache construction times".
//
// For each workload query Q1..Q10, measures the time to (a) fill the plan
// cache and (b) collect the per-candidate index access costs, for classic
// INUM (one optimizer call per IOC x {NLJ on, NLJ off}; one access-path
// collector call per candidate index) and PINUM (one hooked call + two
// NLJ extremes + the probe sweep; one access-path collector call with
// every candidate visible). Neither builder's access calls run the join
// search, so the access speedup compares collector calls only.
//
// Also prints, per query, the join planner's offers over PINUM's
// plan-cache calls (paths_considered) and how many of them passed the
// precheck and were allocated (paths_built), and exits 1 when
// paths_built / paths_considered summed over the workload exceeds
// kMaxBuiltShare. The share is a count, not a timing, so the check is as
// steady on a shared runner as on a quiet machine.
//
// Paper claims: PINUM at least one order of magnitude faster for cache
// construction (two orders for queries joining >3 tables), ~5x faster for
// access-cost collection; tens of milliseconds vs seconds per query.
#include <cstdio>

#include "bench_util.h"
#include "inum/inum_builder.h"
#include "pinum/pinum_builder.h"

namespace pinum {
namespace {

// The precheck allocates 13% of the offers on this workload.
constexpr double kMaxBuiltShare = 0.5;

int Run() {
  StarSchemaWorkload w = bench::MakePaperWorkload();
  CandidateSet set = bench::MakeCandidates(w);
  std::printf(
      "# Figure 4/5: cache construction times (ms), paper-scale stats\n");
  std::printf("# candidates searched: %zu\n", set.candidate_ids.size());
  std::printf(
      "%-5s %-7s %-6s | %-12s %-12s %-8s | %-12s %-12s %-8s | %-9s %-9s "
      "| %-10s %-10s %-6s\n",
      "query", "tables", "IOCs", "INUM_plan", "PINUM_plan", "speedup",
      "INUM_acc", "PINUM_acc", "speedup", "INUM_call", "PINUM_call",
      "considered", "built", "share");

  double sum_plan_ratio = 0, sum_acc_ratio = 0;
  int64_t total_considered = 0, total_built = 0;
  for (const Query& q : w.queries()) {
    InumBuildOptions iopts;
    InumBuildStats istats;
    auto classic = BuildInumCacheClassic(q, w.db().catalog(), set,
                                         w.db().stats(), iopts, &istats);
    if (!classic.ok()) {
      std::fprintf(stderr, "%s INUM: %s\n", q.name.c_str(),
                   classic.status().ToString().c_str());
      return 1;
    }
    PinumBuildOptions popts;
    PinumBuildStats pstats;
    auto pinum = BuildInumCachePinum(q, w.db().catalog(), set,
                                     w.db().stats(), popts, &pstats);
    if (!pinum.ok()) {
      std::fprintf(stderr, "%s PINUM: %s\n", q.name.c_str(),
                   pinum.status().ToString().c_str());
      return 1;
    }
    const double plan_ratio = istats.plan_cache_ms /
                              std::max(0.01, pstats.plan_cache_ms);
    const double acc_ratio = istats.access_cost_ms /
                             std::max(0.01, pstats.access_cost_ms);
    sum_plan_ratio += plan_ratio;
    sum_acc_ratio += acc_ratio;
    int64_t considered = 0, built = 0;
    for (const PinumCallRecord& call : pstats.calls) {
      considered += call.paths_considered;
      built += call.paths_built;
    }
    total_considered += considered;
    total_built += built;
    std::printf(
        "%-5s %-7zu %-6llu | %-12.1f %-12.1f %-8.1f | %-12.1f %-12.1f "
        "%-8.1f | %-9lld %-9lld | %-10lld %-10lld %-6.3f\n",
        q.name.c_str(), q.tables.size(),
        static_cast<unsigned long long>(pstats.iocs_total),
        istats.plan_cache_ms, pstats.plan_cache_ms, plan_ratio,
        istats.access_cost_ms, pstats.access_cost_ms, acc_ratio,
        static_cast<long long>(istats.plan_cache_calls +
                               istats.access_cost_calls),
        static_cast<long long>(pstats.plan_cache_calls +
                               pstats.access_cost_calls),
        static_cast<long long>(considered), static_cast<long long>(built),
        static_cast<double>(built) / static_cast<double>(considered));
  }
  std::printf("# mean plan-cache speedup: %.1fx   mean access speedup: %.1fx\n",
              sum_plan_ratio / 10, sum_acc_ratio / 10);
  std::printf(
      "# paper: >=10x plan cache (>=100x for >3-table joins), ~5x access\n");
  const double share = static_cast<double>(total_built) /
                       static_cast<double>(total_considered);
  std::printf("# PINUM plan calls: %lld paths considered, %lld built "
              "(share %.3f)\n",
              static_cast<long long>(total_considered),
              static_cast<long long>(total_built), share);
  if (share > kMaxBuiltShare) {
    std::fprintf(stderr, "FAIL: built share %.3f exceeds %.3f\n", share,
                 kMaxBuiltShare);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pinum

int main() { return pinum::Run(); }
