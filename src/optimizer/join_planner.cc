#include "optimizer/join_planner.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace pinum {

namespace {
constexpr double kCostFuzz = 1e-9;

/// Visits the position-ordered merge of two leaf lists, in exactly the
/// order std::merge (and so MergeLeaves) produces it.
template <typename F>
void ForEachMerged(std::span<const LeafSlot> a, std::span<const LeafSlot> b,
                   F&& f) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (b[j].table_pos < a[i].table_pos) {
      f(b[j++]);
    } else {
      f(a[i++]);
    }
  }
  for (; i < a.size(); ++i) f(a[i]);
  for (; j < b.size(); ++j) f(b[j]);
}

/// Merges two position-sorted leaf vectors, preserving the order.
std::vector<LeafSlot> MergeLeaves(std::span<const LeafSlot> a,
                                  std::span<const LeafSlot> b) {
  std::vector<LeafSlot> out;
  out.reserve(a.size() + b.size());
  ForEachMerged(a, b, [&out](const LeafSlot& l) { out.push_back(l); });
  return out;
}

void SetInternalCost(Path* p) {
  p->internal_cost = p->cost.total - p->LeafCostSum();
}

bool LeadsWith(const OrderSpec& order, ColumnRef col) {
  return !order.empty() && order.columns[0] == col;
}

/// Standard add_path dominance: no costlier in total or startup, and the
/// order of `a` satisfies (has as a prefix) the order of `b`.
bool CostOrderDominates(const Cost& a, std::span<const ColumnRef> a_order,
                        const Cost& b, std::span<const ColumnRef> b_order) {
  if (a.total > b.total + kCostFuzz) return false;
  if (a.startup > b.startup + kCostFuzz) return false;
  return b_order.size() <= a_order.size() &&
         std::equal(b_order.begin(), b_order.end(), a_order.begin());
}

// ---- Requirement keys (export mode) ----
// The hash covers exactly the fields Path::RequirementOrderKey renders:
// the lead order column, and per leaf the requirement kind, the column
// (ordered and probe leaves) and the int64 truncation of the probe
// multiplier. Equal keys are confirmed with SameLeafRequirement.

uint64_t MixKey(uint64_t h, uint64_t v) {
  h = (h ^ v) * 0x9e3779b97f4a7c15ull;
  return h ^ (h >> 29);
}

uint64_t OrderKeyHash(std::span<const ColumnRef> order) {
  uint64_t h = 0x243f6a8885a308d3ull;
  if (order.empty()) return MixKey(h, 0);
  h = MixKey(h, 1);
  h = MixKey(h, static_cast<uint32_t>(order[0].table));
  return MixKey(h, static_cast<uint32_t>(order[0].column));
}

uint64_t LeafKeyHash(uint64_t h, const LeafSlot& l) {
  h = MixKey(h, static_cast<uint64_t>(l.req));
  if (l.req == LeafReqKind::kUnordered) return h;
  h = MixKey(h, static_cast<uint32_t>(l.column.column));
  if (l.req != LeafReqKind::kProbe) return h;
  return MixKey(h, static_cast<uint64_t>(static_cast<int64_t>(l.multiplier)));
}

bool SameLeafRequirement(const LeafSlot& x, const LeafSlot& y) {
  if (x.req != y.req) return false;
  if (x.req == LeafReqKind::kUnordered) return true;
  if (x.column.column != y.column.column) return false;
  return x.req != LeafReqKind::kProbe ||
         static_cast<int64_t>(x.multiplier) ==
             static_cast<int64_t>(y.multiplier);
}

bool SameOrderLead(const OrderSpec& x, std::span<const ColumnRef> y) {
  if (x.empty() || y.empty()) return x.empty() == y.empty();
  return x.columns[0] == y[0];
}

}  // namespace

bool PathDominates(const Path& a, const Path& b,
                   bool preserve_ioc_diversity) {
  if (preserve_ioc_diversity) {
    // Section V-D dominance, strengthened to be provably safe under
    // re-pricing: compare *internal* costs (total minus leaf access
    // costs). If a's internal cost is no larger, a requires no more from
    // any leaf (S_A subset of S_B pointwise), and a delivers a covering
    // order, then for every index configuration C
    //   cost_C(a) = internal(a) + sum AC_C(reqs_a)
    //             <= internal(b) + sum AC_C(reqs_b) = cost_C(b),
    // because an unordered requirement is priced as the minimum over all
    // access paths. Hence b can never be the per-configuration optimum.
    if (a.internal_cost > b.internal_cost + kCostFuzz) return false;
    if (!a.order.Satisfies(b.order)) return false;
    return LeafReqsSubsumedBy(a, b);
  }
  // Standard PostgreSQL add_path semantics.
  return CostOrderDominates(a.cost, a.order.columns, b.cost, b.order.columns);
}

void AddPath(std::vector<PathPtr>* paths, PathPtr path,
             bool preserve_ioc_diversity) {
  SetInternalCost(path.get());
  for (auto it = paths->begin(); it != paths->end();) {
    if (PathDominates(**it, *path, preserve_ioc_diversity)) return;
    if (PathDominates(*path, **it, preserve_ioc_diversity)) {
      it = paths->erase(it);
    } else {
      ++it;
    }
  }
  paths->push_back(std::move(path));
}

void DominancePrune(std::vector<PathPtr>* paths) {
  auto dominates = [paths](size_t j, size_t i) {
    return PathDominates(*(*paths)[j], *(*paths)[i],
                         /*preserve_ioc_diversity=*/true);
  };
  std::vector<PathPtr> kept;
  kept.reserve(paths->size());
  for (size_t i = 0; i < paths->size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < paths->size() && !dominated; ++j) {
      if (j == i || !dominates(j, i)) continue;
      // Two paths can dominate each other when their probe multipliers
      // are equal within LeafReqsSubsumedBy's tolerance but truncate to
      // different keys; keep the lower index of such a pair.
      dominated = j < i || !dominates(i, j);
    }
    if (!dominated) kept.push_back((*paths)[i]);
  }
  *paths = std::move(kept);
}

bool JoinPlanner::Survives(const Cell& cell, Offer* offer) const {
  if (!ctx_->knobs.hooks.export_all_plans) {
    // AddPath's walk, stopped at the first incumbent that decides: one
    // that dominates the offer rejects it before anything was erased;
    // one the offer dominates means AddPath must run to erase it.
    for (const PathPtr& inc : cell.paths) {
      if (CostOrderDominates(inc->cost, inc->order.columns, offer->cost,
                             offer->order)) {
        return false;
      }
      if (CostOrderDominates(offer->cost, offer->order, inc->cost,
                             inc->order.columns)) {
        return true;
      }
    }
    return true;
  }
  // Export mode: the built path's internal cost (its total minus the leaf
  // sum, in LeafCostSum's merge order) and requirement key, then the key
  // dedup's replace rule.
  double leaf_sum = 0;
  uint64_t key = OrderKeyHash(offer->order);
  ForEachMerged(offer->leaves_a, offer->leaves_b, [&](const LeafSlot& l) {
    leaf_sum += l.multiplier * l.unit_cost;
    key = LeafKeyHash(key, l);
  });
  offer->internal = offer->cost.total - leaf_sum;
  offer->key = key;
  offer->incumbent = kNoPath;
  const size_t num_leaves = offer->leaves_a.size() + offer->leaves_b.size();
  const auto [first, last] = cell.by_key.equal_range(key);
  for (auto it = first; it != last; ++it) {
    const Path& inc = *cell.paths[it->second];
    if (!SameOrderLead(inc.order, offer->order) ||
        inc.leaves.size() != num_leaves) {
      continue;
    }
    size_t k = 0;
    bool same = true;
    ForEachMerged(offer->leaves_a, offer->leaves_b, [&](const LeafSlot& l) {
      same = same && SameLeafRequirement(inc.leaves[k], l);
      ++k;
    });
    if (!same) continue;
    offer->incumbent = it->second;
    return offer->internal < inc.internal_cost - kCostFuzz;
  }
  return true;
}

template <typename Build>
void JoinPlanner::Consider(Cell* cell, Offer* offer, Build&& build) {
  ++paths_considered_;
  if (!Survives(*cell, offer)) return;
  ++paths_built_;
  PathPtr path = build();
  assert(path->cost.total == offer->cost.total &&
         path->cost.startup == offer->cost.startup);
  if (!ctx_->knobs.hooks.export_all_plans) {
    AddPath(&cell->paths, std::move(path), /*preserve_ioc_diversity=*/false);
    return;
  }
  // Export mode: O(1) dedup on the (order, requirements) key, keeping the
  // path with the smallest internal cost. Cross-key dominance pruning
  // runs once per completed cell (FinalizeCell).
  path->internal_cost = offer->internal;
  assert(path->internal_cost == path->cost.total - path->LeafCostSum());
  if (offer->incumbent == kNoPath) {
    cell->by_key.emplace(offer->key, cell->paths.size());
    cell->paths.push_back(std::move(path));
  } else {
    cell->paths[offer->incumbent] = std::move(path);
  }
}

void JoinPlanner::FinalizeCell(Cell* cell) {
  if (ctx_->knobs.hooks.export_all_plans) {
    if (!ctx_->knobs.hooks.disable_dominance_pruning) {
      DominancePrune(&cell->paths);
    }
    cell->by_key = {};
  }
}

JoinPlanner::Cell JoinPlanner::MakeBaseCell(int pos) {
  const TableAccessInfo& info = ctx_->rels[static_cast<size_t>(pos)];
  Cell cell;
  cell.rows = info.filtered_rows;
  cell.width = info.needed_width;
  for (const ScanOption& opt : info.options) {
    LeafSlot slot;
    slot.table_pos = pos;
    slot.table = info.table;
    slot.req = opt.order.empty() ? LeafReqKind::kUnordered
                                 : LeafReqKind::kOrdered;
    slot.column = opt.order.Leading();
    slot.multiplier = 1.0;
    slot.unit_cost = opt.cost.total;
    slot.rows = opt.rows;
    slot.index_used = opt.index;
    slot.index_only = opt.index_only;
    Offer offer;
    offer.cost = opt.cost;
    offer.order = opt.order.columns;
    offer.leaves_a = {&slot, 1};
    Consider(&cell, &offer, [&] {
      auto p = std::make_shared<Path>();
      p->kind = opt.index == kInvalidIndexId ? PathKind::kSeqScan
                                             : PathKind::kIndexScan;
      p->rels = RelSet::Single(pos);
      p->rows = opt.rows;
      p->width = info.needed_width;
      p->cost = opt.cost;
      p->order = opt.order;
      p->table = info.table;
      p->table_pos = pos;
      p->index = opt.index;
      p->index_only = opt.index_only;
      p->sel_index = opt.sel_index;
      p->leaves = {slot};
      return p;
    });
  }
  FinalizeCell(&cell);
  return cell;
}

PathPtr JoinPlanner::EnsureSorted(const PathPtr& path, ColumnRef col,
                                  const Cost& sort) {
  if (LeadsWith(path->order, col)) return path;
  auto p = std::make_shared<Path>();
  p->kind = PathKind::kSort;
  p->rels = path->rels;
  p->rows = path->rows;
  p->width = path->width;
  p->cost.startup = path->cost.total + sort.startup;
  p->cost.total = path->cost.total + sort.total;
  p->order = OrderSpec::Single(col);
  p->outer = path;
  p->leaves = path->leaves;
  return p;
}

PathPtr JoinPlanner::NewJoin(PathKind kind, const Cell& cell, RelSet s,
                             const Offer& offer, PathPtr outer,
                             PathPtr inner, const JoinPredicate& pred) {
  auto p = std::make_shared<Path>();
  p->kind = kind;
  p->rels = s;
  p->rows = cell.rows;
  p->width = cell.width;
  p->cost = offer.cost;
  p->order.columns.assign(offer.order.begin(), offer.order.end());
  p->outer = std::move(outer);
  p->inner = std::move(inner);
  p->join_preds.push_back(pred);
  p->leaves = MergeLeaves(offer.leaves_a, offer.leaves_b);
  return p;
}

void JoinPlanner::MakeJoins(Cell* cell, RelSet s, const Cell& outer_cell,
                            RelSet a, const Cell& inner_cell, RelSet b) {
  // Join predicates connecting the two sides.
  connecting_.clear();
  for (const auto& p : ctx_->preds) {
    if (p.Connects(a, b)) connecting_.push_back(&p);
  }
  if (connecting_.empty()) return;  // no cross products

  const double rows_out = cell->rows;
  const CostModel& model = ctx_->model;
  const PlannerKnobs& knobs = ctx_->knobs;
  const double output_cost = model.OutputCost(rows_out);

  // Every offer below is priced with the expressions, and the operand
  // order, its built path carries; Consider builds it only if it survives.
  for (const PathPtr& pa : outer_cell.paths) {
    for (const PathPtr& pb : inner_cell.paths) {
      // ---- Hash join ----
      if (knobs.enable_hashjoin) {
        const Cost jc = model.HashJoin(pa->rows, pb->rows, pb->width,
                                       pa->width, rows_out);
        Offer offer;
        offer.cost.startup = pb->cost.total + jc.startup;
        offer.cost.total = pa->cost.total + pb->cost.total + jc.total;
        offer.leaves_a = pa->leaves;
        offer.leaves_b = pb->leaves;
        Consider(cell, &offer, [&] {
          return NewJoin(PathKind::kHashJoin, *cell, s, offer, pa, pb,
                         connecting_[0]->pred);
        });
      }

      // ---- Merge join (one per connecting predicate) ----
      if (knobs.enable_mergejoin) {
        for (const JoinPredInfo* jp : connecting_) {
          const bool left_outer = a.Contains(jp->left_pos);
          const ColumnRef outer_col = left_outer ? jp->pred.left
                                                 : jp->pred.right;
          const ColumnRef inner_col = left_outer ? jp->pred.right
                                                 : jp->pred.left;
          // The inputs' costs after EnsureSorted, without the Sorts.
          const bool outer_sorted = LeadsWith(pa->order, outer_col);
          Cost outer_sort;
          Cost so = pa->cost;
          if (!outer_sorted) {
            outer_sort = model.Sort(pa->rows, pa->width);
            so.startup = pa->cost.total + outer_sort.startup;
            so.total = pa->cost.total + outer_sort.total;
          }
          Cost inner_sort;
          Cost si = pb->cost;
          if (!LeadsWith(pb->order, inner_col)) {
            inner_sort = model.Sort(pb->rows, pb->width);
            si.startup = pb->cost.total + inner_sort.startup;
            si.total = pb->cost.total + inner_sort.total;
          }
          const Cost jc = model.MergeJoin(pa->rows, pb->rows, rows_out);
          Offer offer;
          offer.cost.startup = so.startup + si.startup + jc.startup;
          offer.cost.total = so.total + si.total + jc.total;
          // Merge preserves the (sorted) outer order.
          offer.order = outer_sorted ? std::span<const ColumnRef>(
                                           pa->order.columns)
                                     : std::span<const ColumnRef>(
                                           &outer_col, 1);
          offer.leaves_a = pa->leaves;
          offer.leaves_b = pb->leaves;
          Consider(cell, &offer, [&] {
            return NewJoin(PathKind::kMergeJoin, *cell, s, offer,
                           EnsureSorted(pa, outer_col, outer_sort),
                           EnsureSorted(pb, inner_col, inner_sort),
                           jp->pred);
          });
        }
      }

      // ---- Nested-loop joins ----
      if (!knobs.enable_nestloop) continue;

      // (a) Index nested loop: single-relation inner probed through an
      // index on the join column.
      if (b.Count() == 1) {
        const int inner_pos = b.Lowest();
        const TableAccessInfo& inner_info =
            ctx_->rels[static_cast<size_t>(inner_pos)];
        for (const JoinPredInfo* jp : connecting_) {
          const ColumnRef inner_col =
              jp->pred.left.table == inner_info.table ? jp->pred.left
                                                      : jp->pred.right;
          for (const ProbeOption& probe : inner_info.probes) {
            if (!(probe.column == inner_col)) continue;
            LeafSlot slot;
            slot.table_pos = inner_pos;
            slot.table = inner_info.table;
            slot.req = LeafReqKind::kProbe;
            slot.column = probe.column;
            slot.multiplier = pa->rows;
            slot.unit_cost = probe.cost_per_probe.total;
            slot.rows = probe.rows_per_probe;
            slot.index_used = probe.index;
            slot.index_only = probe.index_only;
            Offer offer;
            offer.cost.startup = pa->cost.startup;
            offer.cost.total = pa->cost.total +
                               pa->rows * probe.cost_per_probe.total +
                               output_cost;
            offer.order = pa->order.columns;  // NLJ preserves outer order
            offer.leaves_a = pa->leaves;
            offer.leaves_b = {&slot, 1};
            Consider(cell, &offer, [&] {
              auto ip = std::make_shared<Path>();
              ip->kind = PathKind::kIndexProbe;
              ip->rels = b;
              ip->rows = probe.rows_per_probe;
              ip->width = inner_info.needed_width;
              ip->cost = probe.cost_per_probe;
              ip->table = inner_info.table;
              ip->table_pos = inner_pos;
              ip->index = probe.index;
              ip->index_only = probe.index_only;
              ip->probe_column = probe.column;
              return NewJoin(PathKind::kNestLoop, *cell, s, offer, pa,
                             std::move(ip), jp->pred);
            });
          }
        }
      }

      // (b) Nested loop over a materialized inner.
      {
        const double rescans = std::max(0.0, pa->rows - 1.0);
        const Cost mat = model.Material(pb->rows, pb->width);
        const double rescan_cost =
            model.RescanMaterialCost(pb->rows, pb->width);
        Offer offer;
        offer.cost.startup = pa->cost.startup;
        offer.cost.total =
            pa->cost.total + pb->cost.total + mat.total +
            rescans * rescan_cost +
            pa->rows * pb->rows * model.params().cpu_operator_cost +
            output_cost;
        offer.order = pa->order.columns;
        offer.leaves_a = pa->leaves;
        offer.leaves_b = pb->leaves;
        Consider(cell, &offer, [&] {
          return NewJoin(PathKind::kNestLoop, *cell, s, offer, pa, pb,
                         connecting_[0]->pred);
        });
      }
    }
  }
}

StatusOr<std::vector<PathPtr>> JoinPlanner::Run() {
  const int n = ctx_->NumRels();
  for (int pos = 0; pos < n; ++pos) {
    cells_[RelSet::Single(pos).bits()] = MakeBaseCell(pos);
  }
  if (n == 1) return cells_[RelSet::Single(0).bits()].paths;

  const uint64_t full = RelSet::FirstN(n).bits();
  for (uint64_t mask = 1; mask <= full; ++mask) {
    if (std::popcount(mask) < 2) continue;
    const RelSet s(mask);
    Cell cell;
    cell.rows = ctx_->RowsOfSet(s);
    cell.width = ctx_->WidthOfSet(s);
    // Enumerate partitions; fixing the lowest bit in `a` halves the
    // enumeration, and MakeJoins is called for both role assignments.
    const uint64_t lowest = mask & (~mask + 1);
    for (uint64_t sub = (mask - 1) & mask; sub != 0;
         sub = (sub - 1) & mask) {
      if ((sub & lowest) == 0) continue;
      const uint64_t other = mask ^ sub;
      if (other == 0) continue;
      auto it_a = cells_.find(sub);
      auto it_b = cells_.find(other);
      if (it_a == cells_.end() || it_b == cells_.end()) continue;
      MakeJoins(&cell, s, it_a->second, RelSet(sub), it_b->second,
                RelSet(other));
      MakeJoins(&cell, s, it_b->second, RelSet(other), it_a->second,
                RelSet(sub));
    }
    if (!cell.paths.empty()) {
      FinalizeCell(&cell);
      cells_[mask] = std::move(cell);
    }
  }
  auto it = cells_.find(full);
  if (it == cells_.end() || it->second.paths.empty()) {
    return Status::InvalidArgument(
        "query's join graph is disconnected (cross products unsupported)");
  }
  return it->second.paths;
}

}  // namespace pinum
