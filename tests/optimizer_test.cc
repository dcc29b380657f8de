#include <gtest/gtest.h>

#include "optimizer/interesting_orders.h"
#include "optimizer/join_planner.h"
#include "optimizer/optimizer.h"
#include "test_util.h"
#include "whatif/whatif_index.h"

namespace pinum {
namespace {

/// Collects every node kind appearing in a plan tree.
void CollectKinds(const Path& p, std::vector<PathKind>* kinds) {
  kinds->push_back(p.kind);
  if (p.outer) CollectKinds(*p.outer, kinds);
  if (p.inner) CollectKinds(*p.inner, kinds);
}

bool ContainsKind(const Path& p, PathKind kind) {
  std::vector<PathKind> kinds;
  CollectKinds(p, &kinds);
  return std::find(kinds.begin(), kinds.end(), kind) != kinds.end();
}

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() : mini_() {}
  MiniStar mini_;
};

TEST_F(OptimizerTest, SingleTableScanPlan) {
  QueryBuilder qb(&mini_.db.catalog());
  auto q = qb.From("d1").Select("d1", "c1").Build();
  ASSERT_TRUE(q.ok());
  Optimizer opt(&mini_.db.catalog(), &mini_.db.stats());
  auto r = opt.Optimize(*q, PlannerKnobs{});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->best->kind, PathKind::kSeqScan);
  EXPECT_GT(r->best->cost.total, 0);
}

TEST_F(OptimizerTest, JoinQueryProducesJoinWithSortForOrderBy) {
  const Query q = mini_.JoinQuery();
  Optimizer opt(&mini_.db.catalog(), &mini_.db.stats());
  auto r = opt.Optimize(q, PlannerKnobs{});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // No index covers d1.c1, so the order-by requires a Sort somewhere.
  EXPECT_TRUE(ContainsKind(*r->best, PathKind::kSort));
  EXPECT_TRUE(ContainsKind(*r->best, PathKind::kHashJoin) ||
              ContainsKind(*r->best, PathKind::kMergeJoin) ||
              ContainsKind(*r->best, PathKind::kNestLoop));
}

TEST_F(OptimizerTest, EnableNestloopFalseRemovesNlj) {
  // NLJ-friendly setting: a tiny outer (0.01% filter on fact) probing a
  // large dimension through an index on its key — rescanning the
  // dimension any other way is costlier.
  MiniStar big_dim(/*fact_rows=*/1'000'000, /*dim_rows=*/100'000);
  const TableDef* d1 = big_dim.db.catalog().FindTable(big_dim.d1);
  std::vector<IndexDef> hypo = {
      MakeWhatIfIndex("d1_id", *d1, {0}, 100'000)};
  auto catalog = CatalogWithIndexes(big_dim.db.catalog(), hypo, nullptr);
  ASSERT_TRUE(catalog.ok());
  Optimizer opt(&*catalog, &big_dim.db.stats());
  QueryBuilder qb(&big_dim.db.catalog());
  auto q = qb.Named("nlj_friendly")
               .From("fact")
               .From("d1")
               .Select("fact", "c2")
               .Select("d1", "c1")
               .Join("fact", "fk_d1", "d1", "id")
               .Where("fact", "c1", CompareOp::kLe, 100)  // ~100 rows
               .Build();
  ASSERT_TRUE(q.ok());

  PlannerKnobs with_nlj;
  auto r1 = opt.Optimize(*q, with_nlj);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(ContainsKind(*r1->best, PathKind::kNestLoop))
      << r1->best->Explain(*catalog);

  PlannerKnobs no_nlj;
  no_nlj.enable_nestloop = false;
  auto r2 = opt.Optimize(*q, no_nlj);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(ContainsKind(*r2->best, PathKind::kNestLoop));
  // Removing a join method can only increase the winner's cost.
  EXPECT_GE(r2->best->cost.total, r1->best->cost.total - 1e-6);
}

TEST_F(OptimizerTest, DisablingAllJoinsFailsGracefully) {
  PlannerKnobs none;
  none.enable_nestloop = false;
  none.enable_hashjoin = false;
  none.enable_mergejoin = false;
  Optimizer opt(&mini_.db.catalog(), &mini_.db.stats());
  auto r = opt.Optimize(mini_.JoinQuery(), none);
  EXPECT_FALSE(r.ok());
}

TEST_F(OptimizerTest, DisconnectedJoinGraphRejected) {
  QueryBuilder qb(&mini_.db.catalog());
  auto q = qb.From("d1").From("d2").Select("d1", "c1").Build();
  ASSERT_TRUE(q.ok());
  Optimizer opt(&mini_.db.catalog(), &mini_.db.stats());
  auto r = opt.Optimize(*q, PlannerKnobs{});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(OptimizerTest, CoveringOrderIndexAvoidsTopSort) {
  // Single-table ORDER BY: an index leading with the order column lets
  // the planner skip the Sort entirely.
  const TableDef* d1 = mini_.db.catalog().FindTable(mini_.d1);
  std::vector<IndexDef> hypo = {
      MakeWhatIfIndex("d1_c1_cov", *d1, {1, 2}, 10'000)};  // (c1, c2)
  auto catalog = CatalogWithIndexes(mini_.db.catalog(), hypo, nullptr);
  ASSERT_TRUE(catalog.ok());
  Optimizer opt(&*catalog, &mini_.db.stats());
  QueryBuilder qb(&mini_.db.catalog());
  auto q = qb.From("d1")
               .Select("d1", "c1")
               .Select("d1", "c2")
               .OrderBy("d1", "c1")
               .Build();
  ASSERT_TRUE(q.ok());
  auto r = opt.Optimize(*q, PlannerKnobs{});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(ContainsKind(*r->best, PathKind::kSort))
      << r->best->Explain(*catalog);
  EXPECT_EQ(r->best->kind, PathKind::kIndexScan);

  // The exported per-IOC set of the join query contains a plan whose d1
  // leaf delivers the ORDER BY column's order and probes fact through an
  // fk index — the plan shape that avoids the top-level sort. (An
  // id-ordered merge-join leaf is correctly dominance-pruned here: it can
  // never beat hash join + sort under any configuration.)
  const TableDef* fact = mini_.db.catalog().FindTable(mini_.fact);
  std::vector<IndexDef> nlj_idx = {
      MakeWhatIfIndex("d1_c1", *d1, {1}, 10'000),
      MakeWhatIfIndex("fact_fk_d1", *fact, {1}, 1'000'000)};
  auto catalog2 = CatalogWithIndexes(mini_.db.catalog(), nlj_idx, nullptr);
  ASSERT_TRUE(catalog2.ok());
  Optimizer opt2(&*catalog2, &mini_.db.stats());
  PlannerKnobs hooks;
  hooks.hooks.export_all_plans = true;
  auto r2 = opt2.Optimize(mini_.JoinQuery(), hooks);
  ASSERT_TRUE(r2.ok());
  bool ordered_leaf = false;
  for (const auto& p : r2->exported) {
    for (const auto& slot : p->leaves) {
      if (slot.req == LeafReqKind::kOrdered && slot.table == mini_.d1) {
        ordered_leaf = true;
      }
    }
  }
  EXPECT_TRUE(ordered_leaf);
}

TEST_F(OptimizerTest, ExportedPlansHaveDistinctRequirementKeys) {
  Optimizer opt(&mini_.db.catalog(), &mini_.db.stats());
  PlannerKnobs knobs;
  knobs.hooks.export_all_plans = true;
  knobs.enable_nestloop = false;
  auto r = opt.Optimize(mini_.ThreeWayQuery(), knobs);
  ASSERT_TRUE(r.ok());
  std::set<std::string> keys;
  for (const auto& p : r->exported) {
    EXPECT_TRUE(keys.insert(p->RequirementOrderKey()).second);
  }
  EXPECT_GE(r->exported.size(), 1u);
}

TEST_F(OptimizerTest, CollectAccessPathsMatchesThePlannedScans) {
  Optimizer opt(&mini_.db.catalog(), &mini_.db.stats());
  const Query q = mini_.JoinQuery();
  auto access = opt.CollectAccessPaths(q, PlannerKnobs{});
  ASSERT_TRUE(access.ok()) << access.status().ToString();
  ASSERT_EQ(access->size(), 2u);
  for (size_t pos = 0; pos < access->size(); ++pos) {
    const TableAccessInfo& info = (*access)[pos];
    EXPECT_EQ(info.pos, static_cast<int>(pos));
    EXPECT_EQ(info.table, q.tables[pos]);
    EXPECT_FALSE(info.options.empty());
  }
  // The collector runs no join search, so it also answers for a query
  // the planner rejects; the builders' plan-cache calls still fail it.
  QueryBuilder qb(&mini_.db.catalog());
  auto disconnected = qb.From("d1").From("d2").Select("d1", "c1").Build();
  ASSERT_TRUE(disconnected.ok());
  EXPECT_FALSE(opt.Optimize(*disconnected, PlannerKnobs{}).ok());
  auto disconnected_access =
      opt.CollectAccessPaths(*disconnected, PlannerKnobs{});
  ASSERT_TRUE(disconnected_access.ok());
  EXPECT_EQ(disconnected_access->size(), 2u);
}

TEST_F(OptimizerTest, GroupByProducesAggregation) {
  QueryBuilder qb(&mini_.db.catalog());
  auto q = qb.From("fact")
               .From("d1")
               .Select("d1", "c1")
               .Select("fact", "c2")
               .Join("fact", "fk_d1", "d1", "id")
               .GroupBy("d1", "c1")
               .Aggregate(AggKind::kSum)
               .Build();
  ASSERT_TRUE(q.ok());
  Optimizer opt(&mini_.db.catalog(), &mini_.db.stats());
  auto r = opt.Optimize(*q, PlannerKnobs{});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(ContainsKind(*r->best, PathKind::kHashAgg) ||
              ContainsKind(*r->best, PathKind::kGroupAgg));
  // Output rows bounded by the group count.
  EXPECT_LE(r->best->rows,
            mini_.db.stats().FindColumn({mini_.d1, 1})->n_distinct + 1);
}

TEST_F(OptimizerTest, ExplainRendersTree) {
  Optimizer opt(&mini_.db.catalog(), &mini_.db.stats());
  auto r = opt.Optimize(mini_.JoinQuery(), PlannerKnobs{});
  ASSERT_TRUE(r.ok());
  const std::string text = r->best->Explain(mini_.db.catalog());
  EXPECT_NE(text.find("fact"), std::string::npos);
  EXPECT_NE(text.find("cost="), std::string::npos);
  EXPECT_FALSE(r->best->Signature(mini_.db.catalog()).empty());
}

TEST(InterestingOrdersTest, PerTableOrdersFromClauses) {
  MiniStar mini;
  const Query q = mini.JoinQuery();  // join fact.fk_d1=d1.id, order d1.c1
  const auto orders = PerTableInterestingOrders(q);
  ASSERT_EQ(orders.size(), 2u);
  EXPECT_EQ(orders[0].size(), 1u);  // fact: fk_d1
  EXPECT_EQ(orders[1].size(), 2u);  // d1: id (join), c1 (order by)
  EXPECT_EQ(CountIocs(orders), 6u);  // (1+1)*(1+2)
}

TEST(InterestingOrdersTest, EnumeratorVisitsAllCombinations) {
  MiniStar mini;
  const Query q = mini.ThreeWayQuery();
  const auto orders = PerTableInterestingOrders(q);
  IocEnumerator it(orders);
  Ioc ioc;
  uint64_t n = 0;
  std::set<std::string> seen;
  while (it.Next(&ioc)) {
    ++n;
    seen.insert(IocToString(ioc, mini.db.catalog()));
  }
  EXPECT_EQ(n, CountIocs(orders));
  EXPECT_EQ(seen.size(), n);  // all distinct
  // First combination is all-Phi.
  it.Reset();
  ASSERT_TRUE(it.Next(&ioc));
  for (const auto& c : ioc) EXPECT_FALSE(c.valid());
}

TEST(AddPathTest, StandardModePrunesDominated) {
  auto mk = [](double total, double startup, OrderSpec order) {
    auto p = std::make_shared<Path>();
    p->kind = PathKind::kSeqScan;
    p->cost = {startup, total};
    p->order = std::move(order);
    return p;
  };
  std::vector<PathPtr> paths;
  AddPath(&paths, mk(100, 0, OrderSpec::None()), false);
  // Strictly worse: dropped.
  AddPath(&paths, mk(200, 10, OrderSpec::None()), false);
  EXPECT_EQ(paths.size(), 1u);
  // Better order survives despite higher cost.
  AddPath(&paths, mk(150, 0, OrderSpec::Single({0, 1})), false);
  EXPECT_EQ(paths.size(), 2u);
  // Cheaper with the same order evicts.
  AddPath(&paths, mk(120, 0, OrderSpec::Single({0, 1})), false);
  EXPECT_EQ(paths.size(), 2u);
  double best_ordered = 1e18;
  for (const auto& p : paths) {
    if (!p->order.empty()) best_ordered = p->cost.total;
  }
  EXPECT_EQ(best_ordered, 120);
}

TEST(DominancePruneTest, KeepsTheLowerIndexOfAMutuallyDominatingPair) {
  // Probe multipliers straddling an integer truncate to different
  // requirement keys (x2 / x3) but are equal within LeafReqsSubsumedBy's
  // 1e-6 relative tolerance, so each path dominates the other. Exactly
  // one of them must survive: the first.
  auto mk = [](double multiplier, double internal, LeafReqKind d1_req) {
    auto p = std::make_shared<Path>();
    p->kind = PathKind::kNestLoop;
    p->rels = RelSet::FirstN(2);
    p->internal_cost = internal;
    LeafSlot outer;
    outer.table_pos = 0;
    outer.req = d1_req;
    outer.column = {1, 0};
    LeafSlot probe;
    probe.table_pos = 1;
    probe.req = LeafReqKind::kProbe;
    probe.column = {2, 0};
    probe.multiplier = multiplier;
    p->leaves = {outer, probe};
    return p;
  };
  std::vector<PathPtr> paths = {
      mk(2.9999999, 10, LeafReqKind::kUnordered),
      mk(3.0000001, 10, LeafReqKind::kUnordered),
      // Requires an order on table 0, so neither pair member dominates
      // it; it is cheaper, but its ordered leaf keeps it from
      // dominating them.
      mk(3.0, 5, LeafReqKind::kOrdered),
  };
  ASSERT_NE(paths[0]->RequirementOrderKey(), paths[1]->RequirementOrderKey());
  ASSERT_TRUE(PathDominates(*paths[0], *paths[1], true));
  ASSERT_TRUE(PathDominates(*paths[1], *paths[0], true));
  const std::vector<PathPtr> original = paths;
  DominancePrune(&paths);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0], original[0]);
  EXPECT_EQ(paths[1], original[2]);

  // The order of the pair decides which member stays.
  std::vector<PathPtr> swapped = {original[1], original[0]};
  DominancePrune(&swapped);
  ASSERT_EQ(swapped.size(), 1u);
  EXPECT_EQ(swapped[0], original[1]);
}

}  // namespace
}  // namespace pinum
