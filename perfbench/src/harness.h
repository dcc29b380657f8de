// The end-to-end benchmark's shared pieces: the fixed input cells, the
// seeded configuration generators, and the three stages a run drives —
// cold start (SQL text to advice), warm serving (snapshot restart,
// search advice, what-if traffic) and live reseal (drift and reseal
// beside a client). Every timed region wraps calls into the public
// functions of the src/ layers only.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "advisor/greedy_advisor.h"
#include "advisor/search_advisor.h"
#include "common/rng.h"
#include "inum/access_cost_table.h"
#include "query/query.h"
#include "serving/serving_engine.h"
#include "whatif/candidate_set.h"
#include "workload/cache_manager.h"
#include "workload/drift.h"
#include "workload/workload_family.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// A set-up step failed; the run ends without a result.
class SetupError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

double MsSince(Clock::time_point start);
double Median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double Percentile(std::vector<double> values, double q);

/// Collects check failures; any failure makes the run's `correct` false.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

/// Operations counted toward the run's `attempted` / `failed`.
struct OpCount {
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// One generated workload the stages run over.
struct Cell {
  std::string name;
  std::unique_ptr<pinum::WorkloadInstance> inst;
  /// The paper's star workload is not probed against the optimizer for
  /// the NLJ gap; the eight family cells are.
  bool family = false;
};

/// The fixed cells: the paper's Section VI-A star workload (10 queries,
/// seed 42) and star, chain, skew, fact_pair at seeds 1 and 2. They do
/// not depend on the run's seed.
std::vector<Cell> MakeCells();

/// The chain instance the live-reseal stage drifts (its own copy, so
/// drift never touches the cells the other stages serve).
std::unique_ptr<pinum::WorkloadInstance> MakeDriftInstance();

/// PINUM mode, serial, cross-query access-cost sharing on.
pinum::WorkloadCacheOptions SerialBuildOptions();
/// Greedy options: the golden corpus's 3 GiB budget.
pinum::AdvisorOptions BenchAdvisorOptions();

/// One candidate or none per table of `q` (each table filled with
/// probability 0.6): the configurations the optimizer oracle can price.
pinum::IndexConfig RandomAtomicConfig(const pinum::Query& q,
                                      const pinum::CandidateSet& set,
                                      pinum::Rng* rng);

/// A what-if request: 1 to 8 candidate ids, half the time at most one per
/// table, otherwise drawn freely (several per table).
pinum::IndexConfig RandomStreamConfig(const pinum::CandidateSet& set,
                                      pinum::Rng* rng);

/// Cost of `config` summed over `caches` in query order: the reference
/// every served workload answer is compared with.
double NaiveWorkloadCost(const std::vector<pinum::InumCache>& caches,
                         const pinum::IndexConfig& config);

uint64_t MixSeed(uint64_t seed, uint64_t salt);

/// Submits `configs` through `engine` in windows of `window` and drains
/// each window with PumpOnce from the calling thread. Appends each
/// answer and its latency (submit to the end of the pump that answered
/// it, in microseconds).
void StreamRequests(pinum::ServingEngine* engine,
                    const std::vector<pinum::IndexConfig>& configs,
                    size_t window, std::vector<pinum::CostAnswer>* answers,
                    std::vector<double>* latency_us);

// ---------------------------------------------------------------------
// cold_start: SQL text -> parse -> fresh builder -> BuildAll -> greedy.

class ColdStage {
 public:
  explicit ColdStage(const std::vector<Cell>* cells);

  /// One round over every cell. A focus round's operations count toward
  /// the run's attempted/failed.
  void Round(bool focus);
  /// After the timed window: optimizer ground truth and every check.
  void Finish(uint64_t seed, Checks* checks);

  std::vector<double> round_ms;
  /// Plan + access-cost optimizer calls of one round, after sharing.
  int64_t optimizer_calls = 0;
  /// Layer counters of one round (sums over cells).
  int64_t access_calls = 0;
  int64_t access_calls_saved = 0;
  int64_t greedy_evaluations = 0;
  int64_t greedy_full_evaluations = 0;
  OpCount ops;

 private:
  struct CellRound {
    pinum::WorkloadCacheResult result;
    pinum::AdvisorResult advice;
    std::vector<std::string> sql;
    std::vector<pinum::Query> parsed;
  };

  const std::vector<Cell>* cells_;
  /// Fixed probe configurations per (family cell, query), independent of
  /// the run's seed: the NLJ-gap fault count.
  std::vector<std::vector<std::vector<pinum::IndexConfig>>> probes_;
  size_t num_probes_ = 0;
  size_t num_queries_ = 0;
  /// The first round's outputs, kept for the checks.
  std::vector<CellRound> first_;
  /// The first round's answers to the fixed probes; every later round
  /// must repeat them bit for bit.
  std::vector<double> first_probe_costs_;
  int64_t focus_rounds_ = 0;
  bool rounds_agree_ = true;
};

// ---------------------------------------------------------------------
// warm_serve: mapped restart -> search advice -> what-if stream.

class WarmStage {
 public:
  /// Builds every cell once and saves one snapshot per cell under `dir`.
  WarmStage(const std::vector<Cell>* cells, uint64_t seed,
            const std::string& dir);
  ~WarmStage();
  WarmStage(const WarmStage&) = delete;
  WarmStage& operator=(const WarmStage&) = delete;

  void Round(bool focus);
  void Finish(uint64_t seed, Checks* checks);

  std::vector<double> restart_ms;
  std::vector<double> advise_ms;
  /// Stream totals over all rounds: the metric is total answers over
  /// total stream time, which weighs every stretch of the run by its
  /// length.
  int64_t streamed_answers = 0;
  double streamed_seconds = 0;
  /// Request latencies of the first rounds (for the tail percentiles).
  std::vector<double> request_us;
  int64_t snapshot_bytes = 0;
  int64_t search_evaluations = 0;
  int64_t search_swap_pruned = 0;
  OpCount ops;

  /// Set-up state, shared with the traced run's layer probe.
  struct CellState {
    std::unique_ptr<pinum::WorkloadCacheBuilder> builder;
    pinum::WorkloadCacheResult heap;
    std::string path;
    std::vector<pinum::IndexConfig> stream;
    /// The first round's streamed answers and search outcome.
    std::vector<double> first_answers;
    pinum::SearchResult first_search;
    bool have_first = false;
  };
  std::vector<CellState>& states() { return states_; }
  const std::vector<Cell>& cells() const { return *cells_; }

 private:
  const std::vector<Cell>* cells_;
  std::vector<CellState> states_;
  bool answers_agree_ = true;
  bool stale_empty_ = true;
  bool no_optimizer_calls_ = true;
  bool answers_ok_ = true;
};

// ---------------------------------------------------------------------
// drift_reseal: ApplyDrift + StaleNames + Reseal beside one client.

/// Each drift round stales at least this many queries.
constexpr size_t kDriftStaleTarget = 2;

/// Round `round` of the drift schedule for run seed `seed`: rounds come
/// in pairs sharing one drift seed (so both drift the same tables) and one
/// growth factor g drawn from [1.1, 1.5]; the first round scales those
/// tables by g, the second by exactly 1/g, which puts them back.
struct DriftRound {
  pinum::DriftOptions options;
  uint64_t seed = 0;
};
DriftRound DriftSchedule(uint64_t seed, uint64_t round);

class DriftStage {
 public:
  explicit DriftStage(uint64_t seed);

  /// Runs drift rounds with the client thread live: at least
  /// `min_rounds`, then until `deadline` when one is given, and always
  /// up to the end of a growth/shrink pair.
  void Rounds(int min_rounds, const Clock::time_point* deadline, bool focus);
  void Finish(Checks* checks);

  std::vector<double> reseal_ms;
  /// Per Rounds call (one batch of rounds with its own client thread):
  /// the median reseal time and the median request latency. In some
  /// batches the reseal and the client thread both run about 1.6 times
  /// slower for the whole batch, and the share of such batches varies
  /// from under a tenth to nearly all between runs; the metrics take the
  /// fastest batch, which a pooled median cannot.
  std::vector<double> batch_reseal_ms;
  std::vector<double> batch_p50_us;
  std::vector<double> stale_per_reseal;
  OpCount ops;

 private:
  uint64_t seed_;
  std::unique_ptr<pinum::WorkloadInstance> inst_;
  std::unique_ptr<pinum::WorkloadCacheBuilder> builder_;
  std::unique_ptr<pinum::ServingEngine> engine_;
  std::vector<pinum::IndexConfig> client_stream_;
  std::vector<uint64_t> published_;
  std::vector<uint64_t> answered_generations_;
  /// Statistics before the first drift, for the end-of-run check.
  std::map<pinum::TableId, pinum::TableStats> start_stats_;
  uint64_t round_ = 0;
  bool stale_after_reseal_ = false;
  bool reseal_failed_ = false;
  bool answers_ok_ = true;
};

// ---------------------------------------------------------------------
// Traced runs only: direct calls into each layer the stages do not time
// one by one (the optimizer, the per-query PINUM build, seal, single
// cost calls, snapshot decode, the delta sweep, Pin, a direct rebuild).

struct LayerCounts {
  int64_t pinum_plan_calls = 0;
  int64_t pinum_access_calls = 0;
  int64_t pinum_iocs = 0;
  int64_t pinum_plans_cached = 0;
  int64_t buildall_plan_calls = 0;
  int64_t plans = 0;
  int64_t plans_pruned = 0;
  int64_t terms = 0;
  int64_t postings = 0;
  std::vector<double> rebuild_optimizer_calls;
};

LayerCounts RunLayerProbe(WarmStage* warm, uint64_t seed, Checks* checks);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
