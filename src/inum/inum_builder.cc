#include "inum/inum_builder.h"

#include <map>
#include <string>

#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "optimizer/interesting_orders.h"
#include "optimizer/optimizer.h"
#include "whatif/whatif_index.h"

namespace pinum {

StatusOr<Catalog> CatalogCoveringIoc(const Catalog& base, const Ioc& ioc,
                                     const Query& query,
                                     const StatsCatalog& stats) {
  std::vector<IndexDef> covering;
  for (size_t pos = 0; pos < ioc.size(); ++pos) {
    const ColumnRef col = ioc[pos];
    if (!col.valid()) continue;
    const TableDef* table = base.FindTable(col.table);
    const TableStats* tstats = stats.Find(col.table);
    if (table == nullptr || tstats == nullptr) {
      return Status::NotFound("missing table/stats while covering IOC");
    }
    covering.push_back(MakeWhatIfIndex(
        "__cov_" + query.name + "_" + std::to_string(pos) + "_" +
            std::to_string(col.column),
        *table, {col.column}, tstats->row_count));
  }
  return CatalogWithIndexes(base, covering, nullptr);
}

StatusOr<InumCache> BuildInumCacheClassic(const Query& query,
                                          const Catalog& base_catalog,
                                          const CandidateSet& candidates,
                                          const StatsCatalog& stats,
                                          const InumBuildOptions& options,
                                          InumBuildStats* build_stats) {
  InumCache cache;
  InumBuildStats local;

  // ---- Phase 1: plan cache, one (or two) optimizer calls per IOC. ----
  Stopwatch plan_timer;
  IocEnumerator iocs(PerTableInterestingOrders(query));
  Ioc ioc;
  while (iocs.Next(&ioc)) {
    ++local.iocs_enumerated;
    PINUM_ASSIGN_OR_RETURN(
        Catalog covering,
        CatalogCoveringIoc(base_catalog, ioc, query, stats));
    Optimizer opt(&covering, &stats);

    PlannerKnobs knobs = options.base_knobs;
    knobs.hooks = PlannerHooks{};  // stock optimizer: no hooks
    knobs.enable_nestloop = false;
    // Fault injection: one hit per plan-cache optimizer invocation, so a
    // test can fail or stall exactly the k-th call of a (re)build.
    PINUM_RETURN_IF_ERROR(FailPoint::Check("inum.plan_optimizer_call"));
    PINUM_ASSIGN_OR_RETURN(OptimizeResult no_nlj, opt.Optimize(query, knobs));
    cache.AddPlan(*no_nlj.best, covering, !query.order_by.empty());
    ++local.plan_cache_calls;

    if (options.include_nlj_plans && options.base_knobs.enable_nestloop) {
      knobs.enable_nestloop = true;
      PINUM_RETURN_IF_ERROR(FailPoint::Check("inum.plan_optimizer_call"));
      PINUM_ASSIGN_OR_RETURN(OptimizeResult with_nlj,
                             opt.Optimize(query, knobs));
      cache.AddPlan(*with_nlj.best, covering, !query.order_by.empty());
      ++local.plan_cache_calls;
    }
  }
  local.plan_cache_ms = plan_timer.ElapsedMillis();

  // ---- Phase 2: access costs, one optimizer call per candidate index
  // ("the optimizer can be queried with a single index per each table and
  // the access cost determined by parsing the generated plan",
  // Section V-B) — unless another workload query with the same footprint
  // on the candidate's table already paid for the call. ----
  Stopwatch access_timer;
  SharedAccessCostStore* store = options.shared_access;
  // Signatures are per (query, table); memoize them across the
  // per-candidate loop.
  std::map<TableId, std::string> signatures;
  auto signature_of = [&](TableId table) -> const std::string& {
    auto it = signatures.find(table);
    if (it == signatures.end()) {
      it = signatures.emplace(table, TableContextSignature(query, table))
               .first;
    }
    return it->second;
  };
  for (IndexId candidate : candidates.candidate_ids) {
    const IndexDef* def = candidates.universe.FindIndex(candidate);
    if (def == nullptr) continue;
    // Only candidates on the query's tables are relevant.
    if (query.PosOfTable(def->table) < 0) continue;
    if (store != nullptr) {
      TableAccessInfo shared;
      if (store->LookupCandidate(candidate, signature_of(def->table),
                                 &shared)) {
        shared.pos = query.PosOfTable(def->table);
        cache.mutable_access()->Absorb(shared);
        ++local.access_calls_saved;
        continue;
      }
    }
    Catalog single = candidates.Subset({candidate});
    Optimizer opt(&single, &stats);
    // The access-path collector stands in for parsing the plan.
    PINUM_RETURN_IF_ERROR(FailPoint::Check("inum.access_optimizer_call"));
    PINUM_ASSIGN_OR_RETURN(std::vector<TableAccessInfo> access_info,
                           opt.CollectAccessPaths(query, options.base_knobs));
    for (const auto& info : access_info) {
      cache.mutable_access()->Absorb(info);
      if (store != nullptr) {
        if (info.table == def->table) {
          store->StoreCandidate(candidate, signature_of(info.table), info);
        } else {
          store->StoreFallback(signature_of(info.table), info);
        }
      }
    }
    ++local.access_cost_calls;
  }
  // Shared answers only cover the candidate's own table; tables whose
  // every call was deduplicated away still need their own access info.
  if (store != nullptr) {
    bool fallback_needed = false;
    for (size_t pos = 0; pos < query.tables.size(); ++pos) {
      if (!IsInfinite(cache.access().HeapCost(static_cast<int>(pos)))) {
        continue;
      }
      TableAccessInfo fallback;
      if (store->LookupFallback(signature_of(query.tables[pos]), &fallback)) {
        fallback.pos = static_cast<int>(pos);
        cache.mutable_access()->Absorb(fallback);
      } else {
        fallback_needed = true;
      }
    }
    if (fallback_needed) {
      Optimizer opt(&base_catalog, &stats);
      PINUM_RETURN_IF_ERROR(FailPoint::Check("inum.access_optimizer_call"));
      PINUM_ASSIGN_OR_RETURN(
          std::vector<TableAccessInfo> access_info,
          opt.CollectAccessPaths(query, options.base_knobs));
      for (const auto& info : access_info) {
        cache.mutable_access()->Absorb(info);
        store->StoreFallback(signature_of(info.table), info);
      }
      ++local.access_cost_calls;
    }
  }
  local.access_cost_ms = access_timer.ElapsedMillis();

  local.plans_cached = cache.NumPlans();
  if (build_stats != nullptr) *build_stats = local;
  return cache;
}

}  // namespace pinum
