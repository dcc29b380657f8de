// System-R / PostgreSQL style dynamic-programming join planner
// (the Join Planner box of Figure 2).
//
// Two pruning regimes:
//  - standard: PostgreSQL add_path semantics — keep the Pareto set over
//    (total cost, startup cost, delivered order);
//  - export (PINUM's Section V-D): keep one minimum-internal-cost path
//    per (delivered order, leaf-requirement) key, then apply the
//    dominance rule "if S_A is a (pointwise) subset of S_B and A's
//    internal cost is no larger, drop B" when a cell completes.
//
// In both regimes a join is priced from its two inputs before it is
// built (PostgreSQL's add_path_precheck): an offer the cell would reject
// on arrival is counted but never allocated. The precheck computes the
// same doubles, in the same order, that the built path would carry, so
// the surviving path set is bit-identical to building every offer.
#ifndef PINUM_OPTIMIZER_JOIN_PLANNER_H_
#define PINUM_OPTIMIZER_JOIN_PLANNER_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "optimizer/path.h"
#include "optimizer/planner_context.h"

namespace pinum {

/// Adds `path` to `paths` under add_path pruning semantics (see above).
/// Exposed for the grouping planner, which finalizes plan lists the same
/// way.
void AddPath(std::vector<PathPtr>* paths, PathPtr path,
             bool preserve_ioc_diversity);

/// True if `a` dominates `b` under the active mode's rule.
bool PathDominates(const Path& a, const Path& b, bool preserve_ioc_diversity);

/// Removes every path dominated by another (export-mode rule); used once
/// per completed DP cell. Of two paths that dominate each other (probe
/// multipliers equal within LeafReqsSubsumedBy's tolerance but under
/// different keys) the one with the lower index is kept.
void DominancePrune(std::vector<PathPtr>* paths);

/// Bottom-up join enumeration over connected subsets.
class JoinPlanner {
 public:
  explicit JoinPlanner(const PlannerContext* ctx) : ctx_(ctx) {}

  /// Returns the top-level path list (all tables joined). With the
  /// export_all_plans hook, the list holds one optimal plan per useful
  /// interesting-order combination; otherwise it is the usual small
  /// Pareto set over (cost, order).
  StatusOr<std::vector<PathPtr>> Run();

  /// Number of paths offered to the planner (a planning-effort proxy).
  int64_t paths_considered() const { return paths_considered_; }

  /// Number of offered paths that passed the precheck and were allocated.
  int64_t paths_built() const { return paths_built_; }

 private:
  static constexpr size_t kNoPath = static_cast<size_t>(-1);

  struct Cell {
    double rows = 0;
    double width = 0;
    std::vector<PathPtr> paths;
    /// Export mode: requirement-key hash -> index into `paths`. A hit is
    /// confirmed field by field, since distinct keys can share a hash.
    std::unordered_multimap<uint64_t, size_t> by_key;
  };

  /// A path priced from its inputs but not built yet.
  struct Offer {
    Cost cost;
    /// Delivered order: a view of an input's order, or of the one column
    /// a Sort enforcer would deliver.
    std::span<const ColumnRef> order;
    /// The built path's leaves are the position-ordered merge of these
    /// two lists (MergeLeaves).
    std::span<const LeafSlot> leaves_a;
    std::span<const LeafSlot> leaves_b;
    /// Export mode, set by Survives: requirement-key hash, internal cost,
    /// and the index of the incumbent under the same key (or kNoPath).
    uint64_t key = 0;
    double internal = 0;
    size_t incumbent = 0;
  };

  /// Builds the single-relation cell for table position `pos`.
  Cell MakeBaseCell(int pos);

  /// Generates join paths for target set `s` from the (outer=a, inner=b)
  /// partition and adds them to `cell`.
  void MakeJoins(Cell* cell, RelSet s, const Cell& outer_cell, RelSet a,
                 const Cell& inner_cell, RelSet b);

  /// Returns `path` if it already delivers `col` order, else a Sort that
  /// costs `sort` (the model's Sort cost of `path`) on top of it.
  static PathPtr EnsureSorted(const PathPtr& path, ColumnRef col,
                              const Cost& sort);

  /// A join node over `s` with `offer`'s cost, order and merged leaves.
  static PathPtr NewJoin(PathKind kind, const Cell& cell, RelSet s,
                         const Offer& offer, PathPtr outer, PathPtr inner,
                         const JoinPredicate& pred);

  /// Counts `offer`; if the cell would keep it, calls `build` for the
  /// path (whose cost must be `offer->cost`) and adds it.
  template <typename Build>
  void Consider(Cell* cell, Offer* offer, Build&& build);

  /// False when adding the offered path to `cell` would leave the cell
  /// unchanged (the rejection AddPath / the key dedup would make).
  bool Survives(const Cell& cell, Offer* offer) const;

  /// Export mode: cross-key dominance prune once the cell is complete.
  void FinalizeCell(Cell* cell);

  const PlannerContext* ctx_;
  std::unordered_map<uint64_t, Cell> cells_;
  std::vector<const JoinPredInfo*> connecting_;
  int64_t paths_considered_ = 0;
  int64_t paths_built_ = 0;
};

}  // namespace pinum

#endif  // PINUM_OPTIMIZER_JOIN_PLANNER_H_
