// Optimizer facade: the entry point equivalent to PostgreSQL's
// planner(), with the PINUM hooks of Figure 3.
#ifndef PINUM_OPTIMIZER_OPTIMIZER_H_
#define PINUM_OPTIMIZER_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "optimizer/knobs.h"
#include "optimizer/path.h"
#include "optimizer/scan_builder.h"
#include "query/query.h"
#include "stats/table_stats.h"

namespace pinum {

/// Result of one optimizer call.
struct OptimizeResult {
  /// The winning plan (always set).
  PathPtr best;
  /// With hooks.export_all_plans: one optimal finalized plan per useful
  /// interesting-order combination (Section V-D). Contains only `best`
  /// otherwise.
  std::vector<PathPtr> exported;
  /// Planning-effort proxy: number of paths offered to add_path.
  int64_t paths_considered = 0;
  /// Offered paths that passed the join planner's precheck and were
  /// allocated; the rest were priced from their inputs and rejected.
  int64_t paths_built = 0;
};

/// Bottom-up, dynamic-programming query optimizer.
class Optimizer {
 public:
  Optimizer(const Catalog* catalog, const StatsCatalog* stats)
      : catalog_(catalog), stats_(stats) {}

  /// Optimizes `query` under `knobs`.
  StatusOr<OptimizeResult> Optimize(const Query& query,
                                    const PlannerKnobs& knobs) const;

  /// The access-path collector alone (Section V-C's access-cost call):
  /// every visible index's scan and probe options for each table of
  /// `query`, exactly as Optimize would plan with them, without running
  /// the join search. One entry per table position.
  StatusOr<std::vector<TableAccessInfo>> CollectAccessPaths(
      const Query& query, const PlannerKnobs& knobs) const;

 private:
  const Catalog* catalog_;
  const StatsCatalog* stats_;
};

}  // namespace pinum

#endif  // PINUM_OPTIMIZER_OPTIMIZER_H_
