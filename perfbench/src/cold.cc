// cold_start: SQL text to index advice, starting from nothing. Each round
// renders every query of every cell, parses it back, builds the caches
// in a fresh serial WorkloadCacheBuilder (so no access cost carries over
// between rounds) and runs the greedy advisor on the sealed caches.
#include <cmath>
#include <cstdio>

#include "harness.h"
#include "optimizer/optimizer.h"
#include "parser/parser.h"
#include "trace.h"

namespace perfbench {

using pinum::IndexConfig;
using pinum::Query;

namespace {

/// Probe configurations per query for the NLJ-gap count. The seed is a
/// constant: the fault count must be the same in every run.
constexpr int kProbesPerQuery = 25;
constexpr uint64_t kProbeSeed = 0x5eed0f0a17ULL;
/// Seeded oracle sample per query (the run's seed picks it).
constexpr int kSamplesPerQuery = 8;

/// The optimizer's own cost for `q` with exactly `config`'s candidates
/// built (a direct call, apart from every cached path).
double OptimizerCost(const pinum::WorkloadInstance& inst, const Query& q,
                     const IndexConfig& config) {
  const pinum::Catalog sub = inst.set.Subset(config);
  const pinum::Optimizer optimizer(&sub, &inst.stats());
  auto result = optimizer.Optimize(q, pinum::PlannerKnobs{});
  if (!result.ok()) return std::nan("");
  return result->best->cost.total;
}

double RelativeGap(double cached, double optimizer) {
  return (cached - optimizer) / std::max(std::abs(optimizer), 1e-300);
}

}  // namespace

ColdStage::ColdStage(const std::vector<Cell>* cells) : cells_(cells) {
  probes_.resize(cells->size());
  for (size_t c = 0; c < cells->size(); ++c) {
    const Cell& cell = (*cells)[c];
    num_queries_ += cell.inst->queries.size();
    if (!cell.family) continue;
    for (size_t q = 0; q < cell.inst->queries.size(); ++q) {
      pinum::Rng rng(MixSeed(kProbeSeed, c * 1000 + q));
      std::vector<IndexConfig> probes;
      for (int i = 0; i < kProbesPerQuery; ++i) {
        probes.push_back(
            RandomAtomicConfig(cell.inst->queries[q], cell.inst->set, &rng));
      }
      num_probes_ += probes.size();
      probes_[c].push_back(std::move(probes));
    }
  }
}

void ColdStage::Round(bool focus) {
  BeginRound();
  std::vector<CellRound> out(cells_->size());
  int64_t calls = 0;
  int64_t access = 0;
  int64_t saved = 0;
  int64_t evaluations = 0;
  int64_t full_evaluations = 0;
  bool ok = true;
  const Clock::time_point start = Clock::now();
  {
    Span round_span("cold.round");
    for (size_t c = 0; c < cells_->size(); ++c) {
      const pinum::WorkloadInstance& inst = *(*cells_)[c].inst;
      CellRound& cr = out[c];
      for (const Query& q : inst.queries) {
        cr.sql.push_back(q.ToSql(inst.catalog()));
        auto parsed = [&] {
          Span span("parser.parse");
          return pinum::ParseSql(cr.sql.back(), inst.catalog());
        }();
        if (!parsed.ok()) {
          ok = false;
          break;
        }
        parsed->name = q.name;
        cr.parsed.push_back(std::move(*parsed));
      }
      if (!ok) break;
      pinum::WorkloadCacheBuilder builder(&inst.catalog(), &inst.set,
                                          &inst.stats(), SerialBuildOptions());
      auto built = [&] {
        Span span("workload.build");
        return builder.BuildAll(cr.parsed);
      }();
      if (!built.ok()) {
        ok = false;
        break;
      }
      cr.result = std::move(*built);
      {
        Span span("advisor.greedy");
        cr.advice = pinum::RunGreedyAdvisor(cr.result.sealed, inst.set,
                                            BenchAdvisorOptions());
      }
      const pinum::WorkloadCacheStats& t = cr.result.totals;
      calls += t.plan_cache_calls + t.access_cost_calls;
      access += t.access_cost_calls;
      saved += t.access_calls_saved;
      evaluations += cr.advice.evaluations;
      full_evaluations += cr.advice.full_evaluations;
    }
  }
  round_ms.push_back(MsSince(start));
  if (!ok) {
    rounds_agree_ = false;
    return;
  }

  // Outside the timed region: this round's answers to the fixed probes.
  std::vector<double> probe_costs;
  probe_costs.reserve(num_probes_);
  for (size_t c = 0; c < cells_->size(); ++c) {
    for (size_t q = 0; q < probes_[c].size(); ++q) {
      for (const IndexConfig& config : probes_[c][q]) {
        probe_costs.push_back(out[c].result.sealed[q].Cost(config));
      }
    }
  }
  if (first_.empty()) {
    first_ = std::move(out);
    first_probe_costs_ = std::move(probe_costs);
    optimizer_calls = calls;
    access_calls = access;
    access_calls_saved = saved;
    greedy_evaluations = evaluations;
    greedy_full_evaluations = full_evaluations;
  } else if (probe_costs != first_probe_costs_ || calls != optimizer_calls) {
    // Serial builds are deterministic: every round must repeat round one.
    rounds_agree_ = false;
  }
  if (focus) {
    ++focus_rounds_;
    ops.attempted += static_cast<int64_t>(num_queries_ + num_probes_);
  }
}

void ColdStage::Finish(uint64_t seed, Checks* checks) {
  checks->Expect(!first_.empty(), "cold_start ran no round");
  if (first_.empty()) return;
  checks->Expect(rounds_agree_,
                 "cold_start rounds disagree with round one (probe answers "
                 "or optimizer calls)");

  int64_t above = 0;
  double worst_above = 0;
  std::string worst_where;
  size_t next_probe = 0;
  for (size_t c = 0; c < cells_->size(); ++c) {
    const Cell& cell = (*cells_)[c];
    const pinum::WorkloadInstance& inst = *cell.inst;
    const CellRound& cr = first_[c];
    pinum::Rng sample_rng(MixSeed(seed, 0xc01d0000 + c));
    int64_t cell_above = 0;

    for (size_t q = 0; q < inst.queries.size(); ++q) {
      const Query& query = inst.queries[q];
      checks->Expect(cr.parsed[q].ToSql(inst.catalog()) == cr.sql[q],
                     cell.name + "/" + query.name +
                         ": parsed query does not re-render to its SQL");

      // The empty configuration is one of the PINUM build's extremes:
      // the cached cost must be the optimizer's.
      const double empty_cached = cr.result.sealed[q].Cost({});
      const double empty_direct = OptimizerCost(inst, query, {});
      checks->Expect(std::abs(RelativeGap(empty_cached, empty_direct)) <= 1e-9,
                     cell.name + "/" + query.name +
                         ": empty-configuration cost differs from the "
                         "optimizer");

      // Every cached plan is a real plan: never below the optimizer.
      for (int i = 0; i < kSamplesPerQuery; ++i) {
        const IndexConfig config =
            RandomAtomicConfig(query, inst.set, &sample_rng);
        const double cached = cr.result.sealed[q].Cost(config);
        const double direct = OptimizerCost(inst, query, config);
        checks->Expect(RelativeGap(cached, direct) >= -1e-9,
                       cell.name + "/" + query.name +
                           ": cached cost below the optimizer's");
      }

      // The fixed probes: an answer above the optimizer's cost is the
      // NLJ gap, counted as a failed operation; one below is wrong.
      if (c < probes_.size() && q < probes_[c].size()) {
        for (const IndexConfig& config : probes_[c][q]) {
          const double cached = first_probe_costs_[next_probe++];
          const double direct = OptimizerCost(inst, query, config);
          const double gap = RelativeGap(cached, direct);
          checks->Expect(gap >= -1e-9,
                         cell.name + "/" + query.name +
                             ": probe cost below the optimizer's");
          if (gap > 1e-9) {
            ++cell_above;
            if (gap > worst_above) {
              worst_above = gap;
              worst_where = cell.name + "/" + query.name;
            }
          }
        }
      }
    }

    if (cell.family) {
      std::printf("  %-12s %3lld probes above the optimizer\n",
                  cell.name.c_str(), static_cast<long long>(cell_above));
    }
    above += cell_above;

    // Greedy: the reported cost is the query-order sum of the build-time
    // caches' costs, the picks fit the budget, and costs never rise.
    const pinum::AdvisorResult& advice = cr.advice;
    const double recomputed =
        NaiveWorkloadCost(cr.result.caches, advice.chosen);
    checks->Expect(recomputed == advice.workload_cost_after,
                   cell.name + ": greedy cost_after is not the InumCache sum");
    checks->Expect(
        advice.total_size_bytes <= BenchAdvisorOptions().budget_bytes,
        cell.name + ": greedy picks exceed the budget");
    double previous = advice.workload_cost_before;
    for (const pinum::AdvisorStep& step : advice.steps) {
      checks->Expect(step.workload_cost_after <= previous,
                     cell.name + ": a greedy step raised the cost");
      previous = step.workload_cost_after;
    }
  }
  ops.failed = focus_rounds_ * above;
  std::printf("cold_start: %lld of %zu fixed probes above the optimizer "
              "(worst +%.1f%% on %s), counted as failed in each round\n",
              static_cast<long long>(above), num_probes_, 100 * worst_above,
              worst_where.c_str());
}

}  // namespace perfbench
