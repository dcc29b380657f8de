// Per-table access-path enumeration: the Access Path Collector of
// Figure 2/3 in the paper. The same computation feeds (a) the planner's
// scan paths, (b) PINUM's one-call access-cost harvest (Section V-C), and
// (c) INUM's per-configuration access-cost pricing — keeping all three
// numerically identical by construction.
#ifndef PINUM_OPTIMIZER_SCAN_BUILDER_H_
#define PINUM_OPTIMIZER_SCAN_BUILDER_H_

#include <vector>

#include "catalog/catalog.h"
#include "optimizer/cost_model.h"
#include "optimizer/order_spec.h"
#include "query/query.h"
#include "stats/table_stats.h"

namespace pinum {

/// One way of accessing a base table.
struct ScanOption {
  /// kInvalidIndexId = heap sequential scan.
  IndexId index = kInvalidIndexId;
  bool index_only = false;
  Cost cost;
  /// Rows produced (after all of the query's filters on this table).
  double rows = 0;
  /// Fraction of the index traversed (1.0 = full scan).
  double sel_index = 1.0;
  /// Delivered order (index key columns; empty for heap scan).
  OrderSpec order;
};

/// One way of probing a base table with an equality parameter (the inner
/// side of an index nested-loop join).
struct ProbeOption {
  IndexId index = kInvalidIndexId;
  /// Probe column (must be the index's leading column).
  ColumnRef column;
  bool index_only = false;
  /// Cost and output rows of a single probe.
  Cost cost_per_probe;
  double rows_per_probe = 0;
};

/// Everything the planner needs to know about one base table of a query.
struct TableAccessInfo {
  TableId table = kInvalidTableId;
  int pos = -1;
  /// Row count before filters (from statistics).
  double raw_rows = 0;
  /// Combined selectivity of the query's filters on this table.
  double filter_sel = 1.0;
  /// raw_rows x filter_sel, clamped to >= 1.
  double filtered_rows = 1;
  double heap_pages = 1;
  /// Output width (bytes of columns the query needs).
  double needed_width = 8;
  int num_filters = 0;
  std::vector<ScanOption> options;
  std::vector<ProbeOption> probes;
};

/// Computes TableAccessInfo for table position `pos` of `query`.
///
/// Enumerates: heap scan; for every visible index with a useful leading
/// column a regular and (when the index covers all needed columns) an
/// index-only scan; and equality-probe options for every join column.
/// No pruning happens here — the collector level decides what to keep
/// (all of it for PINUM's access-cost call, Optimizer::CollectAccessPaths,
/// Section V-C; the cheapest per interesting order otherwise).
StatusOr<TableAccessInfo> BuildTableAccessInfo(const Query& query, int pos,
                                               const Catalog& catalog,
                                               const StatsCatalog& stats,
                                               const CostModel& model);

}  // namespace pinum

#endif  // PINUM_OPTIMIZER_SCAN_BUILDER_H_
