// Micro-benchmarks (google-benchmark) for the optimizer itself: standard
// planning vs PINUM's hooked modes across query sizes — the per-call
// costs underlying Figure 4/5.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "optimizer/optimizer.h"
#include "pinum/pinum_builder.h"

namespace pinum {
namespace {

struct Env {
  StarSchemaWorkload workload = bench::MakePaperWorkload();
  CandidateSet candidates = bench::MakeCandidates(workload);
};

Env& GetEnv() {
  static Env* env = new Env();
  return *env;
}

/// Standard optimizer call (stock pruning, no hooks).
void BM_OptimizeStandard(benchmark::State& state) {
  Env& env = GetEnv();
  const Query& q =
      env.workload.queries()[static_cast<size_t>(state.range(0))];
  Optimizer opt(&env.workload.db().catalog(), &env.workload.db().stats());
  for (auto _ : state) {
    auto r = opt.Optimize(q, PlannerKnobs{});
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(q.name + " (" + std::to_string(q.tables.size()) +
                 " tables)");
}
BENCHMARK(BM_OptimizeStandard)->DenseRange(0, 9);

/// Export-mode call (the PINUM plan-cache call, NLJ removed).
void BM_OptimizeExportAllPlans(benchmark::State& state) {
  Env& env = GetEnv();
  const Query& q =
      env.workload.queries()[static_cast<size_t>(state.range(0))];
  Optimizer opt(&env.workload.db().catalog(), &env.workload.db().stats());
  PlannerKnobs knobs;
  knobs.enable_nestloop = false;
  knobs.hooks.export_all_plans = true;
  for (auto _ : state) {
    auto r = opt.Optimize(q, knobs);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(q.name);
}
BENCHMARK(BM_OptimizeExportAllPlans)->DenseRange(0, 9);

/// Access-path collector call over the full candidate universe
/// (the PINUM access-cost call; no join search).
void BM_CollectAccessPaths(benchmark::State& state) {
  Env& env = GetEnv();
  const Query& q =
      env.workload.queries()[static_cast<size_t>(state.range(0))];
  Optimizer opt(&env.candidates.universe, &env.workload.db().stats());
  for (auto _ : state) {
    auto r = opt.CollectAccessPaths(q, PlannerKnobs{});
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(q.name);
}
BENCHMARK(BM_CollectAccessPaths)->DenseRange(0, 9);

/// Cached cost derivation: the arithmetic that replaces optimizer calls.
void BM_InumCostDerivation(benchmark::State& state) {
  Env& env = GetEnv();
  const Query& q = env.workload.queries()[5];
  static InumCache* cache = [&] {
    PinumBuildOptions opts;
    auto c = BuildInumCachePinum(q, env.workload.db().catalog(),
                                 env.candidates, env.workload.db().stats(),
                                 opts, nullptr);
    return new InumCache(std::move(*c));
  }();
  Rng rng(1);
  std::vector<IndexConfig> configs;
  for (int i = 0; i < 64; ++i) {
    configs.push_back(bench::RandomAtomicConfig(q, env.candidates, &rng));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache->Cost(configs[i++ % configs.size()]));
  }
}
BENCHMARK(BM_InumCostDerivation);

}  // namespace
}  // namespace pinum

BENCHMARK_MAIN();
