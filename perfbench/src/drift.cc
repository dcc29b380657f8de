// drift_reseal: writes beside reads on the same sealed caches. One
// ServingEngine serves a chain instance. This thread repeats seeded
// ApplyDrift rounds inside WithWorld (DriftSchedule), each staling about
// 2 of the queries, then StaleNames and Reseal; one client thread submits
// and pumps what-if windows meanwhile. Growth and shrink rounds alternate
// on the same tables with exactly reciprocal factors and every Rounds call
// ends on a whole pair, so statistics return to where they started and
// the last reseal prices the same world as the first.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <thread>

#include "harness.h"
#include "trace.h"

namespace perfbench {

using pinum::IndexConfig;

namespace {

constexpr size_t kWindow = 32;
constexpr int kClientWindows = 64;
/// After whole growth/shrink pairs every drifted statistic is back at its
/// starting value up to floating-point rounding.
constexpr double kStatsTolerance = 1e-9;

/// Joins a thread when the scope ends, exceptions included.
class JoinGuard {
 public:
  JoinGuard(std::thread* thread, std::atomic<bool>* stop)
      : thread_(thread), stop_(stop) {}
  ~JoinGuard() {
    stop_->store(true);
    if (thread_->joinable()) thread_->join();
  }
  JoinGuard(const JoinGuard&) = delete;
  JoinGuard& operator=(const JoinGuard&) = delete;

 private:
  std::thread* thread_;
  std::atomic<bool>* stop_;
};

}  // namespace

DriftRound DriftSchedule(uint64_t seed, uint64_t round) {
  DriftRound r;
  r.seed = MixSeed(seed, 0xd71f0000 + round / 2);
  // One growth factor per pair; factor_min == factor_max makes ApplyDrift
  // scale every drifted table by exactly it (or by its reciprocal).
  pinum::Rng rng(MixSeed(r.seed, 0x6f0a7000));
  const double growth = 1.1 + 0.4 * rng.NextDouble();
  const double factor = round % 2 == 0 ? growth : 1 / growth;
  r.options.factor_min = factor;
  r.options.factor_max = factor;
  return r;
}

DriftStage::DriftStage(uint64_t seed)
    : seed_(seed), inst_(MakeDriftInstance()) {
  builder_ = std::make_unique<pinum::WorkloadCacheBuilder>(
      &inst_->catalog(), &inst_->set, &inst_->stats(), SerialBuildOptions());
  auto built = builder_->BuildAll(inst_->queries);
  if (!built.ok()) {
    throw SetupError("drift instance: build failed: " +
                     built.status().ToString());
  }
  engine_ = std::make_unique<pinum::ServingEngine>(
      builder_.get(), &inst_->queries, std::move(*built));
  published_.push_back(engine_->CurrentGenerationId());
  start_stats_ = inst_->stats().all();
  pinum::Rng rng(MixSeed(seed, 0xc11e0000));
  for (size_t i = 0; i < kWindow * kClientWindows; ++i) {
    client_stream_.push_back(RandomStreamConfig(inst_->set, &rng));
  }
}

void DriftStage::Rounds(int min_rounds, const Clock::time_point* deadline,
                        bool focus) {
  std::atomic<bool> stop{false};
  // Client-side tallies, read after the join. Answers are checked as they
  // arrive; the batch's latencies are kept only until its median is taken.
  int64_t answered = 0;
  const size_t first_reseal = reseal_ms.size();
  std::vector<pinum::CostAnswer> answers;
  std::vector<double> latencies;
  std::vector<double> batch_latencies;
  std::thread client([&] {
    std::vector<IndexConfig> window;
    for (size_t w = 0; !stop.load(std::memory_order_relaxed); ++w) {
      BeginRound();
      const size_t begin = (w % kClientWindows) * kWindow;
      window.assign(client_stream_.begin() + begin,
                    client_stream_.begin() + begin + kWindow);
      answers.clear();
      latencies.clear();
      StreamRequests(engine_.get(), window, kWindow, &answers, &latencies);
      answered += static_cast<int64_t>(answers.size());
      for (const pinum::CostAnswer& a : answers) {
        answers_ok_ = answers_ok_ && a.status.ok();
        if (answered_generations_.empty() ||
            answered_generations_.back() != a.generation) {
          answered_generations_.push_back(a.generation);
        }
      }
      batch_latencies.insert(batch_latencies.end(), latencies.begin(),
                             latencies.end());
    }
  });
  {
    JoinGuard guard(&client, &stop);
    // Ends only after a shrink round, so the world is back at its start.
    for (int r = 0; r < min_rounds || round_ % 2 != 0 ||
                    (deadline != nullptr && Clock::now() < *deadline);
         ++r) {
      const DriftRound drift = DriftSchedule(seed_, round_++);

      BeginRound();
      pinum::Status drifted;
      std::vector<std::string> names;
      pinum::Status resealed;
      const Clock::time_point start = Clock::now();
      {
        Span span("drift.round");
        {
          Span apply_span("workload.drift_apply");
          engine_->WithWorld([&] {
            drifted = pinum::ApplyDrift(inst_->queries, &inst_->set,
                                        &inst_->mutable_stats(),
                                        kDriftStaleTarget, drift.seed,
                                        drift.options)
                          .status();
          });
        }
        {
          Span names_span("serving.stale_names");
          names = engine_->StaleNames();
        }
        {
          Span reseal_span("serving.reseal");
          resealed = engine_->Reseal(names);
        }
      }
      reseal_ms.push_back(MsSince(start));
      stale_per_reseal.push_back(static_cast<double>(names.size()));
      if (!drifted.ok() || !resealed.ok()) reseal_failed_ = true;
      published_.push_back(engine_->CurrentGenerationId());
      if (!engine_->StaleNames().empty()) stale_after_reseal_ = true;
      if (focus) ops.attempted += 1;
    }
  }
  batch_p50_us.push_back(Median(std::move(batch_latencies)));
  batch_reseal_ms.push_back(Median(std::vector<double>(
      reseal_ms.begin() + static_cast<std::ptrdiff_t>(first_reseal),
      reseal_ms.end())));
  if (focus) ops.attempted += answered;
}

void DriftStage::Finish(Checks* checks) {
  checks->Expect(!reseal_ms.empty(), "drift_reseal ran no round");
  checks->Expect(!reseal_failed_, "drift_reseal: a drift or reseal failed");
  checks->Expect(!stale_after_reseal_,
                 "drift_reseal: StaleNames not empty after a reseal");
  checks->Expect(answers_ok_, "drift_reseal: a request failed");
  std::sort(published_.begin(), published_.end());
  bool all_published = true;
  for (uint64_t id : answered_generations_) {
    all_published =
        all_published &&
        std::binary_search(published_.begin(), published_.end(), id);
  }
  checks->Expect(all_published,
                 "drift_reseal: an answer names an unpublished generation");

  // Whole growth/shrink pairs leave every table's statistics where they
  // started.
  checks->Expect(round_ % 2 == 0, "drift_reseal: ended inside a drift pair");
  auto near = [](double now, double start) {
    return std::abs(now - start) <= kStatsTolerance * std::abs(start);
  };
  bool stats_restored = inst_->stats().all().size() == start_stats_.size();
  for (const auto& [table, start] : start_stats_) {
    const pinum::TableStats* now = inst_->stats().Find(table);
    stats_restored = stats_restored && now != nullptr &&
                     near(now->row_count, start.row_count) &&
                     now->columns.size() == start.columns.size();
    for (size_t c = 0; stats_restored && c < start.columns.size(); ++c) {
      stats_restored =
          near(now->columns[c].n_distinct, start.columns[c].n_distinct);
    }
  }
  checks->Expect(stats_restored,
                 "drift_reseal: statistics did not return to their start "
                 "after whole growth/shrink pairs");

  // The final generation against a cold build of the drifted world.
  pinum::WorkloadCacheBuilder fresh(&inst_->catalog(), &inst_->set,
                                    &inst_->stats(), SerialBuildOptions());
  auto cold = fresh.BuildAll(inst_->queries);
  checks->Expect(cold.ok(), "drift_reseal: cold rebuild failed");
  if (!cold.ok()) return;
  const auto generation = engine_->Pin();
  pinum::Rng rng(MixSeed(seed_, 0xf1a10000));
  for (size_t q = 0; q < inst_->queries.size(); ++q) {
    for (int i = 0; i < 16; ++i) {
      const IndexConfig config =
          RandomAtomicConfig(inst_->queries[q], inst_->set, &rng);
      checks->Expect(
          generation->sealed()[q].Cost(config) == cold->sealed[q].Cost(config),
          "drift_reseal: final generation differs from a cold build under "
          "the drifted world");
    }
  }
}

}  // namespace perfbench
