// The golden plan-stability corpus: per (family, seed, budget), the
// chosen plans, internal/access costs, each PINUM optimizer call's
// winner cost and search effort, an access-cost table hash, seal
// pruning counts, and the
// greedy + search advisor trajectories (search.* lines: restart and
// swap-move outcomes at a fixed seed), rendered as canonical
// `key = value` text and
// checked in under tests/corpus/. CI regenerates the text and diffs it
// against the golden files (tools/corpus_tool.cc), so a cost-model or
// advisor change fails loudly with the exact changed (workload, query,
// plan) entries instead of silently flipping plans — mongo's
// query_golden idea applied to the what-if cache. Costs are rendered as
// C99 hex doubles (%a): bit-exact round trip, no decimal rounding to
// hide one-ULP drift. Format spec: docs/WORKLOADS.md.
#ifndef PINUM_WORKLOAD_PLAN_CORPUS_H_
#define PINUM_WORKLOAD_PLAN_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "workload/cache_manager.h"

namespace pinum {

/// One corpus cell: a workload family instantiation plus the advisor
/// budget its trajectory is recorded under.
struct CorpusSpec {
  std::string family;
  uint64_t seed = 1;
  int64_t budget_bytes = 3LL * 1024 * 1024 * 1024;
};

/// The checked-in corpus grid: every registered family × seeds {1, 2}.
std::vector<CorpusSpec> DefaultCorpusSpecs();

/// Golden file name for one spec: "<family>_s<seed>.corpus".
std::string CorpusFileName(const CorpusSpec& spec);

/// Builds the spec's workload (serially — num_threads is forced to 1 so
/// accounting is scheduling-independent), runs the greedy advisor and
/// the randomized search (serial, seed 1, no time budget) at the spec's
/// budget, and renders the canonical corpus text. `base_opts`
/// carries everything else (mode, planner knobs): the perturbation test
/// passes a tweaked cost constant through it and asserts the diff
/// reports exactly the cost-bearing entries.
StatusOr<std::string> BuildCorpusText(
    const CorpusSpec& spec, const WorkloadCacheOptions& base_opts = {});

/// One corpus entry that differs between golden and fresh text. Empty
/// old_value means the key was added; empty new_value means removed.
struct CorpusDelta {
  std::string key;
  std::string old_value;
  std::string new_value;
};

/// Diffs two corpus texts entry-by-entry: changed and removed keys in
/// golden order, then added keys in fresh order. Comment (#) and blank
/// lines are ignored; an identical corpus diffs empty.
std::vector<CorpusDelta> DiffCorpusText(const std::string& golden,
                                        const std::string& fresh);

/// Human-readable rendering of a delta list ("key: old -> new", one per
/// line) — what the CI job prints as the reviewable blast radius.
std::string FormatDeltas(const std::vector<CorpusDelta>& deltas);

}  // namespace pinum

#endif  // PINUM_WORKLOAD_PLAN_CORPUS_H_
