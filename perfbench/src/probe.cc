// The traced run's layer probe: one direct call into each layer the
// stages only reach through a bigger call — Optimizer::Optimize and
// BuildInumCachePinum per query, SealedCache::Seal, single Cost /
// CostWithExtra calls against the InumCache reference, the snapshot
// decode path, one BatchCostWithExtras sweep, ServingEngine::Pin and a
// direct RebuildQueriesInto on the drift stage's stale sets.
#include <algorithm>
#include <cstdio>

#include "harness.h"
#include "inum/sealed_cache.h"
#include "optimizer/optimizer.h"
#include "pinum/pinum_builder.h"
#include "trace.h"

namespace perfbench {

using pinum::IndexConfig;

namespace {

constexpr int kCostCalls = 512;
constexpr int kPinCalls = 4096;
constexpr int kRebuildPairs = 4;

/// Span names per joined-table count, over the 2 to 7 tables the fixed
/// cells join (static storage: spans keep the pointer); nullptr outside.
const char* OptimizeSpanName(size_t tables) {
  static const char* const kNames[] = {
      "optimizer.optimize.t2", "optimizer.optimize.t3",
      "optimizer.optimize.t4", "optimizer.optimize.t5",
      "optimizer.optimize.t6", "optimizer.optimize.t7"};
  return tables >= 2 && tables <= 7 ? kNames[tables - 2] : nullptr;
}

}  // namespace

LayerCounts RunLayerProbe(WarmStage* warm, uint64_t seed, Checks* checks) {
  LayerCounts counts;
  double sink = 0;
  for (size_t c = 0; c < warm->cells().size(); ++c) {
    const pinum::WorkloadInstance& inst = *warm->cells()[c].inst;
    WarmStage::CellState& st = warm->states()[c];
    BeginRound();
    pinum::Rng rng(MixSeed(seed, 0x9b0be000 + c));
    std::vector<IndexConfig> configs;
    for (int i = 0; i < kCostCalls; ++i) {
      configs.push_back(RandomStreamConfig(inst.set, &rng));
    }

    for (const pinum::Query& q : inst.queries) {
      const char* optimize_span = OptimizeSpanName(q.tables.size());
      checks->Expect(optimize_span != nullptr,
                     "probe: a query joins fewer than 2 or more than 7 tables");
      if (optimize_span != nullptr) {
        const pinum::Optimizer optimizer(&inst.catalog(), &inst.stats());
        Span span(optimize_span);
        auto direct = optimizer.Optimize(q, pinum::PlannerKnobs{});
        checks->Expect(direct.ok(), "probe: direct optimizer call failed");
      }
      pinum::PinumBuildStats stats;
      auto cache = [&] {
        Span span("pinum.build");
        return pinum::BuildInumCachePinum(q, inst.catalog(), inst.set,
                                          inst.stats(),
                                          pinum::PinumBuildOptions{}, &stats);
      }();
      checks->Expect(cache.ok(), "probe: per-query PINUM build failed");
      if (!cache.ok()) continue;
      counts.pinum_plan_calls += stats.plan_cache_calls;
      counts.pinum_access_calls += stats.access_cost_calls;
      counts.pinum_iocs += static_cast<int64_t>(stats.iocs_total);
      counts.pinum_plans_cached += static_cast<int64_t>(stats.plans_cached);

      const pinum::SealedCache sealed = [&] {
        Span span("inum.seal");
        return pinum::SealedCache::Seal(*cache, inst.set.NumIndexIds());
      }();
      {
        Span span("inum.cost", kCostCalls);
        for (const IndexConfig& config : configs) sink += sealed.Cost(config);
      }
      {
        Span span("inum.naive_cost", kCostCalls);
        for (const IndexConfig& config : configs) sink += cache->Cost(config);
      }
      pinum::SealedCache::CostContext ctx;
      sealed.PrepareContext({}, &ctx);
      {
        Span span("inum.cost_with_extra",
                  static_cast<double>(inst.set.candidate_ids.size()));
        for (pinum::IndexId id : inst.set.candidate_ids) {
          sink += sealed.CostWithExtra(&ctx, id);
        }
      }
    }

    const pinum::WorkloadCacheStats& totals = st.heap.totals;
    counts.buildall_plan_calls += totals.plan_cache_calls;
    counts.plans += static_cast<int64_t>(totals.plans_cached -
                                         totals.plans_pruned);
    counts.plans_pruned += static_cast<int64_t>(totals.plans_pruned);
    counts.terms += static_cast<int64_t>(totals.terms);
    counts.postings += static_cast<int64_t>(totals.postings);

    {
      Span span("inum.snapshot_decode");
      auto decoded = st.builder->LoadSnapshot(st.path);
      checks->Expect(decoded.ok(), "probe: snapshot decode failed");
    }
    {
      const pinum::WorkloadCostEvaluator evaluator(&st.heap.sealed);
      pinum::WorkloadCostEvaluator::EvalScratch scratch;
      Span span("advisor.sweep");
      sink += evaluator.BatchCostWithExtras({}, inst.set.candidate_ids,
                                            &scratch)[0];
    }
    {
      pinum::ServingEngine engine(st.builder.get(), &inst.queries, st.heap);
      Span span("serving.pin", kPinCalls);
      for (int i = 0; i < kPinCalls; ++i) {
        sink += static_cast<double>(engine.Pin()->id);
      }
    }
  }
  checks->Expect(counts.pinum_plan_calls == counts.buildall_plan_calls,
                 "probe: per-query PINUM plan calls differ from BuildAll's");

  // Direct rebuilds of the drift stage's first stale sets, on a fresh
  // copy of its instance drifted by the same seeds.
  auto inst = MakeDriftInstance();
  pinum::WorkloadCacheBuilder builder(&inst->catalog(), &inst->set,
                                      &inst->stats(), SerialBuildOptions());
  auto base = builder.BuildAll(inst->queries);
  checks->Expect(base.ok(), "probe: drift instance build failed");
  for (int r = 0; base.ok() && r < 2 * kRebuildPairs; ++r) {
    BeginRound();
    const DriftRound schedule = DriftSchedule(seed, static_cast<uint64_t>(r));
    auto drift = [&] {
      Span span("workload.drift_apply");
      return pinum::ApplyDrift(inst->queries, &inst->set,
                               &inst->mutable_stats(), kDriftStaleTarget,
                               schedule.seed, schedule.options);
    }();
    checks->Expect(drift.ok(), "probe: drift failed");
    if (!drift.ok()) break;
    pinum::WorkloadCacheStats rebuild;
    auto next = [&] {
      Span span("workload.rebuild");
      return builder.RebuildQueriesInto(drift->stale_queries, inst->queries,
                                        *base, &rebuild);
    }();
    checks->Expect(next.ok(), "probe: RebuildQueriesInto failed");
    if (!next.ok()) break;
    *base = std::move(*next);
    counts.rebuild_optimizer_calls.push_back(static_cast<double>(
        rebuild.plan_cache_calls + rebuild.access_cost_calls));
  }
  std::fprintf(stderr, "probe checksum %.17g\n", sink);
  return counts;
}

}  // namespace perfbench
