// PINUM cache construction (the paper's contribution, Sections V-C/V-D):
// the same InumCache the classic procedure builds, filled from one hooked
// optimizer call (plus one for access costs and up to two for NLJ plans)
// instead of one call per interesting-order combination.
#ifndef PINUM_PINUM_PINUM_BUILDER_H_
#define PINUM_PINUM_PINUM_BUILDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "inum/access_cost_store.h"
#include "inum/cache.h"
#include "optimizer/knobs.h"
#include "query/query.h"
#include "stats/table_stats.h"
#include "whatif/candidate_set.h"

namespace pinum {

/// Knobs for the PINUM build.
struct PinumBuildOptions {
  /// Number of extra NLJ-enabled optimizer calls (paper: "typically only
  /// two calls to the optimizer at the extreme access costs are
  /// sufficient"; 0 disables NLJ plans entirely — the accuracy/size
  /// trade-off of Section V-D, see ablation A2).
  ///   call 0: lowest access costs (every candidate visible);
  ///   call 1: highest access costs (no candidates);
  ///   >= 3:   adds a probe sweep — one winner-only call per join
  ///           predicate with only the candidates led by that predicate's
  ///           columns visible, so index-nested-loop shapes that lose at
  ///           both global extremes (cheap probes but no cheap range
  ///           scans) win and get cached. This sweep is this
  ///           implementation's instance of the paper's "higher accuracy
  ///           ... at the cost of a bigger plan cache" refinement; calls
  ///           stay linear in the join count, never in the IOC count.
  int nlj_extreme_calls = 3;
  /// When true, the NLJ extreme calls also run with the export hook,
  /// caching every per-IOC NLJ plan instead of only the winner. Higher
  /// accuracy, "but at the cost of a bigger plan cache and slower cost
  /// lookup" (Section V-D) — and a slower build. Ablation A2 measures the
  /// trade-off.
  bool nlj_export_all = false;
  /// When set, the access-cost call is skipped entirely for queries whose
  /// every table footprint another workload query already priced (same
  /// candidate universe). The store must belong to the same
  /// (catalog, candidates, stats).
  SharedAccessCostStore* shared_access = nullptr;
  PlannerKnobs base_knobs;
};

/// One plan-cache optimizer call of a PINUM build: what the golden corpus
/// pins about the search itself, beyond the plans it harvested.
struct PinumCallRecord {
  /// "export", "nlj_low", "nlj_high", or "probe<j>" for the probe-sweep
  /// call of join predicate j.
  std::string kind;
  /// Total cost of the call's winning plan.
  double best_cost = 0;
  int64_t plans_exported = 0;
  int64_t paths_considered = 0;
  /// Offers the join planner's precheck let through and allocated; not
  /// recorded in the corpus, which pins the search, not its cost.
  int64_t paths_built = 0;
};

/// Build-time accounting, the quantities plotted in Figure 4/5.
struct PinumBuildStats {
  int64_t plan_cache_calls = 0;
  int64_t access_cost_calls = 0;
  /// Optimizer calls answered by PinumBuildOptions::shared_access.
  int64_t access_calls_saved = 0;
  double plan_cache_ms = 0;
  double access_cost_ms = 0;
  uint64_t iocs_total = 0;
  size_t plans_cached = 0;
  /// Plans exported by the hooked call(s) before dedup.
  int64_t plans_exported = 0;
  /// Every plan-cache call, in call order.
  std::vector<PinumCallRecord> calls;
};

/// Fills an InumCache for `query` via the PINUM hooks:
///  1. one call with nested loops removed, every interesting order
///     covered by what-if indexes, and the export_all_plans hook — the
///     join planner retains one optimal plan per useful IOC (dominance
///     pruned) and all of them are harvested;
///  2. one access-path collector call (Optimizer::CollectAccessPaths)
///     with all candidate indexes visible — it reports every index's
///     access costs at once and runs no join search;
///  3. up to two NLJ-enabled calls at the extreme access costs (all
///     candidates visible / none visible).
StatusOr<InumCache> BuildInumCachePinum(const Query& query,
                                        const Catalog& base_catalog,
                                        const CandidateSet& candidates,
                                        const StatsCatalog& stats,
                                        const PinumBuildOptions& options,
                                        PinumBuildStats* build_stats);

}  // namespace pinum

#endif  // PINUM_PINUM_PINUM_BUILDER_H_
