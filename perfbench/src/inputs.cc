// Inputs and small shared helpers: the fixed cells, the seeded
// configuration generators, and the what-if request stream.
#include <algorithm>
#include <cstdio>
#include <map>

#include "harness.h"
#include "trace.h"

namespace perfbench {

using pinum::CandidateSet;
using pinum::IndexConfig;
using pinum::IndexId;
using pinum::Query;
using pinum::Rng;
using pinum::TableId;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()));
  if (rank >= values.size()) rank = values.size() - 1;
  return values[rank];
}

void Checks::Expect(bool ok, const std::string& what) {
  if (ok) return;
  if (failures_.size() < 32) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  failures_.push_back(what);
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

std::unique_ptr<pinum::WorkloadInstance> MakeInstance(
    const std::string& family, uint64_t seed, int num_queries) {
  pinum::WorkloadFamilyOptions options;
  options.seed = seed;
  options.num_queries = num_queries;
  auto inst = pinum::MakeWorkloadInstance(family, options);
  if (!inst.ok()) {
    throw SetupError("workload " + family + " seed " + std::to_string(seed) +
                     ": " + inst.status().ToString());
  }
  return std::move(*inst);
}

}  // namespace

std::vector<Cell> MakeCells() {
  std::vector<Cell> cells;
  cells.push_back({"paper_star", MakeInstance("star", 42, 10), false});
  for (const std::string& family : pinum::WorkloadFamilyNames()) {
    for (uint64_t seed : {1, 2}) {
      cells.push_back({family + "_s" + std::to_string(seed),
                       MakeInstance(family, seed, 0), true});
    }
  }
  return cells;
}

std::unique_ptr<pinum::WorkloadInstance> MakeDriftInstance() {
  return MakeInstance("chain", 1, 0);
}

pinum::WorkloadCacheOptions SerialBuildOptions() {
  pinum::WorkloadCacheOptions options;
  options.mode = pinum::CacheBuildMode::kPinum;
  options.num_threads = 1;
  options.share_access_costs = true;
  return options;
}

pinum::AdvisorOptions BenchAdvisorOptions() {
  pinum::AdvisorOptions options;
  options.budget_bytes = 3LL * 1024 * 1024 * 1024;
  return options;
}

IndexConfig RandomAtomicConfig(const Query& q, const CandidateSet& set,
                               Rng* rng) {
  std::map<TableId, std::vector<IndexId>> per_table;
  for (IndexId id : set.candidate_ids) {
    const pinum::IndexDef* def = set.universe.FindIndex(id);
    if (def != nullptr && q.PosOfTable(def->table) >= 0) {
      per_table[def->table].push_back(id);
    }
  }
  IndexConfig config;
  for (auto& [table, ids] : per_table) {
    (void)table;
    if (rng->Chance(0.6)) config.push_back(ids[rng->Index(ids.size())]);
  }
  return config;
}

IndexConfig RandomStreamConfig(const CandidateSet& set, Rng* rng) {
  const size_t k = 1 + rng->Index(8);
  const bool one_per_table = rng->Chance(0.5);
  IndexConfig config;
  std::vector<TableId> tables;
  for (size_t tries = 0; config.size() < k && tries < 64; ++tries) {
    const IndexId id = set.candidate_ids[rng->Index(set.candidate_ids.size())];
    if (std::find(config.begin(), config.end(), id) != config.end()) continue;
    const TableId table = set.universe.FindIndex(id)->table;
    if (one_per_table) {
      if (std::find(tables.begin(), tables.end(), table) != tables.end()) {
        continue;
      }
      tables.push_back(table);
    }
    config.push_back(id);
  }
  return config;
}

double NaiveWorkloadCost(const std::vector<pinum::InumCache>& caches,
                         const IndexConfig& config) {
  double total = 0;
  for (const pinum::InumCache& cache : caches) total += cache.Cost(config);
  return total;
}

void StreamRequests(pinum::ServingEngine* engine,
                    const std::vector<IndexConfig>& configs, size_t window,
                    std::vector<pinum::CostAnswer>* answers,
                    std::vector<double>* latency_us) {
  // One slot per request of the window; a shed request keeps its slot
  // (an invalid future) so answers stay parallel to `configs`.
  std::vector<std::future<pinum::CostAnswer>> futures(window);
  std::vector<pinum::Status> shed(window);
  std::vector<Clock::time_point> submitted(window);
  for (size_t begin = 0; begin < configs.size(); begin += window) {
    const size_t n = std::min(configs.size() - begin, window);
    size_t queued = 0;
    {
      Span span("serving.submit", static_cast<double>(n));
      for (size_t i = 0; i < n; ++i) {
        submitted[i] = Clock::now();
        auto future = engine->SubmitCost(configs[begin + i]);
        if (future.ok()) {
          futures[i] = std::move(*future);
          ++queued;
        } else {
          shed[i] = future.status();
        }
      }
    }
    for (size_t drained = 0; drained < queued;) {
      Span span("serving.pump");
      const size_t answered = engine->PumpOnce();
      span.set_items(static_cast<double>(answered));
      if (answered == 0) break;
      drained += answered;
    }
    const Clock::time_point done = Clock::now();
    for (size_t i = 0; i < n; ++i) {
      if (!futures[i].valid()) {
        answers->push_back({0, 0, shed[i]});
        continue;
      }
      answers->push_back(futures[i].get());
      latency_us->push_back(
          std::chrono::duration<double, std::micro>(done - submitted[i])
              .count());
    }
  }
}

}  // namespace perfbench
