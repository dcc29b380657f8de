// warm_serve: restart from snapshots, tune, then answer what-if traffic
// with no optimizer call. Set-up builds every cell once and saves one
// snapshot per cell; each round maps them back (stale check included) up
// to the first answer, runs the search advisor with fixed work, and
// streams a seeded configuration mix through a ServingEngine, submitted
// in windows and drained by PumpOnce from the same thread.
#include <filesystem>

#include "harness.h"
#include "trace.h"

namespace perfbench {

using pinum::IndexConfig;

namespace {

constexpr int kStreamPerCell = 1024;
constexpr size_t kWindow = 64;
constexpr size_t kLatencyRounds = 64;

pinum::SearchOptions BenchSearchOptions() {
  pinum::SearchOptions options;
  options.base = BenchAdvisorOptions();
  options.seed = 1;
  options.max_restarts = 6;
  options.time_budget_ms = 0;
  return options;
}

}  // namespace

WarmStage::WarmStage(const std::vector<Cell>* cells, uint64_t seed,
                     const std::string& dir)
    : cells_(cells) {
  states_.resize(cells->size());
  for (size_t c = 0; c < cells->size(); ++c) {
    const Cell& cell = (*cells)[c];
    const pinum::WorkloadInstance& inst = *cell.inst;
    CellState& st = states_[c];
    st.builder = std::make_unique<pinum::WorkloadCacheBuilder>(
        &inst.catalog(), &inst.set, &inst.stats(), SerialBuildOptions());
    auto built = st.builder->BuildAll(inst.queries);
    if (!built.ok()) {
      throw SetupError(cell.name + ": build failed: " +
                       built.status().ToString());
    }
    st.heap = std::move(*built);
    st.path = dir + "/" + cell.name + ".snap";
    pinum::Status saved;
    {
      Span span("inum.snapshot_save");
      saved = st.builder->SaveSnapshot(st.path, st.heap, inst.queries);
    }
    if (!saved.ok()) {
      throw SetupError(cell.name + ": snapshot save failed: " +
                       saved.ToString());
    }
    snapshot_bytes +=
        static_cast<int64_t>(std::filesystem::file_size(st.path));
    pinum::Rng rng(MixSeed(seed, 0x5eaf0000 + c));
    for (int i = 0; i < kStreamPerCell; ++i) {
      st.stream.push_back(RandomStreamConfig(inst.set, &rng));
    }
  }
}

WarmStage::~WarmStage() {
  for (const CellState& st : states_) {
    std::error_code ec;
    std::filesystem::remove(st.path, ec);
  }
}

void WarmStage::Round(bool focus) {
  BeginRound();
  const size_t n = cells_->size();
  std::vector<std::unique_ptr<pinum::ServingEngine>> engines(n);
  std::vector<int64_t> misses_before(n);
  for (size_t c = 0; c < n; ++c) {
    misses_before[c] = states_[c].builder->store().misses();
  }

  // Restart: map, stale check, engine, first answer.
  bool stale_empty = true;
  bool ok = true;
  Clock::time_point start = Clock::now();
  {
    Span span("warm.restart");
    for (size_t c = 0; c < n; ++c) {
      CellState& st = states_[c];
      const std::vector<pinum::Query>& queries = (*cells_)[c].inst->queries;
      std::vector<std::string> names;
      auto mapped = [&] {
        Span map_span("inum.snapshot_map");
        return st.builder->LoadSnapshotMapped(st.path, &names);
      }();
      if (!mapped.ok()) {
        ok = false;
        break;
      }
      {
        Span stale_span("workload.stale_check");
        stale_empty = stale_empty &&
                      st.builder->StaleQueries(names, mapped->stamps, queries)
                          .empty();
      }
      engines[c] = std::make_unique<pinum::ServingEngine>(
          st.builder.get(), &queries, std::move(*mapped));
      ok = ok && engines[c]->Cost({}).status.ok();
    }
  }
  restart_ms.push_back(MsSince(start));
  stale_empty_ = stale_empty_ && stale_empty;
  if (!ok) {
    answers_ok_ = false;
    return;
  }

  // Advice: the search advisor with fixed work on the mapped caches.
  std::vector<pinum::SearchResult> searches(n);
  start = Clock::now();
  {
    Span span("warm.advise");
    for (size_t c = 0; c < n; ++c) {
      const auto generation = engines[c]->Pin();
      Span search_span("advisor.search");
      searches[c] = pinum::RunSearchAdvisor(
          generation->sealed(), (*cells_)[c].inst->set, BenchSearchOptions());
    }
  }
  advise_ms.push_back(MsSince(start));

  // What-if traffic through submit + pump.
  std::vector<std::vector<pinum::CostAnswer>> answers(n);
  std::vector<double> latencies;
  latencies.reserve(n * kStreamPerCell);
  size_t answered = 0;
  start = Clock::now();
  {
    Span span("warm.stream");
    for (size_t c = 0; c < n; ++c) {
      StreamRequests(engines[c].get(), states_[c].stream, kWindow,
                     &answers[c], &latencies);
      answered += answers[c].size();
    }
  }
  const double stream_s = MsSince(start) / 1e3;
  streamed_answers += static_cast<int64_t>(answered);
  streamed_seconds += stream_s;

  // Outside the timed regions: determinism across rounds, no optimizer.
  // Latencies of the first kLatencyRounds rounds are kept for the tail
  // percentiles; later rounds only count.
  if (restart_ms.size() <= kLatencyRounds) {
    request_us.insert(request_us.end(), latencies.begin(), latencies.end());
  }
  search_evaluations = 0;
  search_swap_pruned = 0;
  for (size_t c = 0; c < n; ++c) {
    CellState& st = states_[c];
    std::vector<double> costs;
    costs.reserve(answers[c].size());
    for (const pinum::CostAnswer& a : answers[c]) {
      answers_ok_ = answers_ok_ && a.status.ok() && a.generation == 1;
      costs.push_back(a.cost);
    }
    if (!st.have_first) {
      st.first_answers = std::move(costs);
      st.first_search = searches[c];
      st.have_first = true;
    } else if (costs != st.first_answers ||
               searches[c].chosen != st.first_search.chosen ||
               searches[c].workload_cost_after !=
                   st.first_search.workload_cost_after) {
      answers_agree_ = false;
    }
    search_evaluations += searches[c].evaluations;
    search_swap_pruned += searches[c].swap_candidates_pruned;
    no_optimizer_calls_ = no_optimizer_calls_ &&
                          engines[c]->Stats().reseal_attempts == 0 &&
                          st.builder->store().misses() == misses_before[c];
  }
  if (focus) {
    ops.attempted += static_cast<int64_t>(2 * n + answered);
  }
}

void WarmStage::Finish(uint64_t seed, Checks* checks) {
  checks->Expect(stale_empty_, "warm_serve: StaleQueries not empty after a "
                               "restart");
  checks->Expect(no_optimizer_calls_,
                 "warm_serve: the serving path made an optimizer call");
  checks->Expect(answers_ok_, "warm_serve: a request failed");
  checks->Expect(answers_agree_,
                 "warm_serve: rounds disagree with round one");
  for (size_t c = 0; c < states_.size(); ++c) {
    const CellState& st = states_[c];
    const Cell& cell = (*cells_)[c];
    if (!st.have_first) {
      checks->Expect(false, cell.name + ": warm_serve ran no round");
      continue;
    }
    // Every streamed answer is the query-order InumCache sum.
    for (size_t i = 0; i < st.stream.size(); ++i) {
      if (st.first_answers[i] != NaiveWorkloadCost(st.heap.caches,
                                                   st.stream[i])) {
        checks->Expect(false, cell.name + ": streamed answer differs from "
                                          "the InumCache sum");
        break;
      }
    }
    // Adding an index never raises a cost, on the mapped caches.
    auto mapped = st.builder->LoadSnapshotMapped(st.path);
    checks->Expect(mapped.ok(), cell.name + ": snapshot no longer maps");
    if (mapped.ok()) {
      const pinum::WorkloadCostEvaluator evaluator(&mapped->sealed);
      pinum::Rng rng(MixSeed(seed, 0x3030000 + c));
      const pinum::CandidateSet& set = cell.inst->set;
      for (int i = 0; i < 64; ++i) {
        IndexConfig config = RandomStreamConfig(set, &rng);
        const double before = evaluator.Cost(config);
        config.push_back(
            set.candidate_ids[rng.Index(set.candidate_ids.size())]);
        checks->Expect(evaluator.Cost(config) <= before,
                       cell.name + ": adding an index raised a cost");
      }
    }
    // Search never loses to its greedy baseline and reports the
    // recomputed InumCache sum.
    const pinum::SearchResult& s = st.first_search;
    checks->Expect(s.workload_cost_after <= s.greedy_cost_after,
                   cell.name + ": search worse than greedy");
    checks->Expect(
        NaiveWorkloadCost(st.heap.caches, s.chosen) == s.workload_cost_after,
        cell.name + ": search cost_after is not the InumCache sum");
  }
}

}  // namespace perfbench
