// perfbench: one end-to-end benchmark run of the what-if engine.
//
//   perfbench --workload <cold_start|warm_serve|drift_reseal> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Set-up generates the fixed cells, builds them once, saves one snapshot
// per cell and starts the drift stage's engine. The measured window then
// runs the two other stages for a fixed number of rounds (so every run
// reports every metric) and the named workload's stage until --seconds
// have passed. Checks run after the window. The last stdout line is one
// JSON object: correct, attempted, failed and the metrics — end to end
// with --trace 0, per layer with --trace 1 (which also writes a Chrome
// trace to the work directory).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "trace.h"

namespace perfbench {
namespace {

/// Fixed side-pass sizes: each run measures the stages it does not focus
/// on with this much work, spread evenly over the window so that side
/// figures sample the same machine conditions as the focus stage.
constexpr int kSideColdRounds = 10;
constexpr int kSideWarmRounds = 40;
/// Drift side passes run in batches of one growth/shrink pair (the client
/// thread starts and stops with each batch).
constexpr int kSideDriftBatches = 24;
constexpr int kSideDriftPerBatch = 2;
/// A focus stage runs at least this many rounds, however short the run.
constexpr int kMinFocusRounds = 3;

enum class Stage { kCold, kWarm, kDrift };

/// One side-pass step and the time it falls due.
struct SideSlot {
  Clock::time_point due;
  Stage stage;
};

/// Side passes for every stage but `focus`, interleaved (round-robin by
/// stage) and spaced evenly over [start, start + seconds).
std::vector<SideSlot> ScheduleSidePasses(Stage focus, Clock::time_point start,
                                         double seconds) {
  const int counts[] = {focus == Stage::kCold ? 0 : kSideColdRounds,
                        focus == Stage::kWarm ? 0 : kSideWarmRounds,
                        focus == Stage::kDrift ? 0 : kSideDriftBatches};
  const int total = counts[0] + counts[1] + counts[2];
  // Step i of `total` takes stage s when the even spread of s's count
  // over the sequence crosses an integer there.
  std::vector<Stage> order;
  for (int i = 0; i < total; ++i) {
    for (int s = 0; s < 3; ++s) {
      if ((i + 1) * counts[s] / total > i * counts[s] / total) {
        order.push_back(static_cast<Stage>(s));
      }
    }
  }
  std::vector<SideSlot> slots;
  for (size_t j = 0; j < order.size(); ++j) {
    const double at = (static_cast<double>(j) + 0.5) /
                      static_cast<double>(order.size()) * seconds;
    slots.push_back({start + std::chrono::microseconds(
                                 static_cast<int64_t>(at * 1e6)),
                     order[j]});
  }
  return slots;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/run";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<cold_start|warm_serve|drift_reseal> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload != "cold_start" && args.workload != "warm_serve" &&
      args.workload != "drift_reseal") {
    Usage("unknown or missing --workload");
  }
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

/// Writes the result object: metrics in insertion order, every value with
/// full precision.
class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  name.c_str(), value, unit);
    entries_.emplace_back(buf);
  }
  void AddCount(const std::string& name, int64_t value) {
    Add(name, static_cast<double>(value), "count");
  }
  void Print(bool correct, int64_t attempted, int64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %" PRId64
                ", \"failed\": %" PRId64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::printf("%s%s", i == 0 ? "" : ", ", entries_[i].c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<std::string> entries_;
};

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Median per-item time of the spans named `name`, scaled from ns.
double SpanMedian(const std::map<std::string, SpanSummary>& spans,
                  const std::string& name, double ns_per_unit) {
  auto it = spans.find(name);
  if (it == spans.end()) return 0;
  return Median(it->second.per_item_ns) / ns_per_unit;
}

/// Median whole-span time (items ignored), scaled from ns.
double SpanCallMedian(const std::map<std::string, SpanSummary>& spans,
                      const std::string& name, double ns_per_unit) {
  auto it = spans.find(name);
  if (it == spans.end()) return 0;
  return Median(it->second.span_ns) / ns_per_unit;
}

void PrintSelfTimes(const std::map<std::string, SpanSummary>& spans) {
  std::printf("%-28s %9s %9s %12s %12s %14s\n", "span", "recorded",
              "dropped", "total_ms", "self_ms", "median/item");
  for (const auto& [name, s] : spans) {
    std::printf("%-28s %9" PRId64 " %9" PRId64 " %12.3f %12.3f %12.1f ns\n",
                name.c_str(), s.count, s.dropped, s.total_ms, s.self_ms,
                Median(s.per_item_ns));
  }
}

void AddLayerMetrics(const ColdStage& cold, const WarmStage& warm,
                     const DriftStage& drift, const LayerCounts& counts,
                     Metrics* m) {
  const auto spans = Tracer::Get().Summarize();
  constexpr double kUs = 1e3, kMs = 1e6;
  m->Add("parser.parse_us", SpanMedian(spans, "parser.parse", kUs), "us");
  std::vector<double> optimize;
  for (const auto& [name, s] : spans) {
    if (name.rfind("optimizer.optimize.t", 0) == 0) {
      optimize.insert(optimize.end(), s.per_item_ns.begin(),
                      s.per_item_ns.end());
    }
  }
  m->Add("optimizer.optimize_ms", Median(optimize) / kMs, "ms");
  for (int t = 2; t <= 7; ++t) {
    const std::string span = "optimizer.optimize.t" + std::to_string(t);
    m->Add("optimizer.optimize_ms.t" + std::to_string(t),
           SpanMedian(spans, span, kMs), "ms");
  }
  m->Add("pinum.build_ms", SpanMedian(spans, "pinum.build", kMs), "ms");
  m->AddCount("pinum.plan_calls", counts.pinum_plan_calls);
  m->AddCount("pinum.access_calls", counts.pinum_access_calls);
  m->AddCount("pinum.iocs", counts.pinum_iocs);
  m->AddCount("pinum.plans_cached", counts.pinum_plans_cached);
  m->Add("workload.build_ms", SpanMedian(spans, "workload.build", kMs), "ms");
  const double attempted =
      static_cast<double>(cold.access_calls + cold.access_calls_saved);
  m->AddCount("workload.access_calls_saved", cold.access_calls_saved);
  m->Add("workload.access_calls_attempted", attempted, "count");
  const double saved = static_cast<double>(cold.access_calls_saved);
  m->Add("workload.access_saved_share", attempted > 0 ? saved / attempted : 0,
         "fraction");
  m->Add("workload.rebuild_ms", SpanMedian(spans, "workload.rebuild", kMs),
         "ms");
  m->Add("workload.reseal_optimizer_calls",
         Median(counts.rebuild_optimizer_calls), "count");
  m->Add("workload.stale_queries", Median(drift.stale_per_reseal), "count");
  m->Add("workload.stale_check_us",
         SpanMedian(spans, "workload.stale_check", kUs), "us");
  m->Add("workload.drift_apply_ms",
         SpanMedian(spans, "workload.drift_apply", kMs), "ms");
  m->Add("inum.seal_ms", SpanMedian(spans, "inum.seal", kMs), "ms");
  m->AddCount("inum.plans", counts.plans);
  m->AddCount("inum.plans_pruned", counts.plans_pruned);
  m->AddCount("inum.terms", counts.terms);
  m->AddCount("inum.postings", counts.postings);
  m->Add("inum.cost_ns", SpanMedian(spans, "inum.cost", 1), "ns");
  m->Add("inum.naive_cost_ns", SpanMedian(spans, "inum.naive_cost", 1), "ns");
  m->Add("inum.cost_with_extra_ns",
         SpanMedian(spans, "inum.cost_with_extra", 1), "ns");
  m->Add("inum.snapshot_save_ms",
         SpanMedian(spans, "inum.snapshot_save", kMs), "ms");
  m->Add("inum.snapshot_map_ms", SpanMedian(spans, "inum.snapshot_map", kMs),
         "ms");
  m->Add("inum.snapshot_decode_ms",
         SpanMedian(spans, "inum.snapshot_decode", kMs), "ms");
  m->Add("advisor.greedy_ms", SpanMedian(spans, "advisor.greedy", kMs), "ms");
  m->Add("advisor.search_ms", SpanMedian(spans, "advisor.search", kMs), "ms");
  m->Add("advisor.sweep_us", SpanMedian(spans, "advisor.sweep", kUs), "us");
  m->AddCount("advisor.evaluations", cold.greedy_evaluations);
  m->AddCount("advisor.full_evaluations", cold.greedy_full_evaluations);
  m->AddCount("advisor.swap_pruned", warm.search_swap_pruned);
  const double swept =
      static_cast<double>(warm.search_swap_pruned + warm.search_evaluations);
  m->Add("advisor.swap_pruned_share",
         swept > 0 ? static_cast<double>(warm.search_swap_pruned) / swept : 0,
         "fraction");
  m->Add("serving.submit_us", SpanMedian(spans, "serving.submit", kUs), "us");
  m->Add("serving.pump_us", SpanCallMedian(spans, "serving.pump", kUs), "us");
  auto pump = spans.find("serving.pump");
  m->Add("serving.batch_size",
         pump == spans.end() ? 0
                             : pump->second.total_items /
                                   static_cast<double>(pump->second.count),
         "count");
  m->Add("serving.pin_ns", SpanMedian(spans, "serving.pin", 1), "ns");
  m->Add("serving.request_p99_us", Percentile(warm.request_us, 0.99), "us");
  m->Add("serving.request_p999_us", Percentile(warm.request_us, 0.999), "us");
  m->Add("serving.reseal_ms", SpanMedian(spans, "serving.reseal", kMs), "ms");
  m->Add("serving.stale_names_us",
         SpanMedian(spans, "serving.stale_names", kUs), "us");
}

int Run(const Args& args, Clock::time_point process_start) {
  if (args.trace) Tracer::Get().Arm();
  const std::string dir =
      args.work_dir + "/" + std::to_string(static_cast<long>(getpid()));
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  // Removes the snapshot directory however the run ends.
  struct DirGuard {
    std::string path;
    ~DirGuard() {
      std::error_code e;
      std::filesystem::remove_all(path, e);
    }
  } dir_guard{dir};

  const std::vector<Cell> cells = MakeCells();
  for (const Cell& cell : cells) {
    size_t max_tables = 0;
    for (const pinum::Query& q : cell.inst->queries) {
      max_tables = std::max(max_tables, q.tables.size());
    }
    std::printf("cell %-12s queries %2zu  candidates %4zu  tables <= %zu\n",
                cell.name.c_str(), cell.inst->queries.size(),
                cell.inst->set.candidate_ids.size(), max_tables);
  }
  ColdStage cold(&cells);
  WarmStage warm(&cells, args.seed, dir);
  DriftStage drift(args.seed);
  const double setup_s = MsSince(process_start) / 1e3;

  const Clock::time_point window_start = Clock::now();
  const Clock::time_point deadline =
      window_start + std::chrono::microseconds(
                         static_cast<int64_t>(args.seconds * 1e6));
  const std::string& w = args.workload;
  const Stage focus = w == "cold_start"   ? Stage::kCold
                      : w == "warm_serve" ? Stage::kWarm
                                          : Stage::kDrift;
  const std::vector<SideSlot> slots =
      ScheduleSidePasses(focus, window_start, args.seconds);
  size_t next_slot = 0;
  auto run_due_slots = [&](bool all) {
    for (; next_slot < slots.size() &&
           (all || slots[next_slot].due <= Clock::now());
         ++next_slot) {
      switch (slots[next_slot].stage) {
        case Stage::kCold:
          cold.Round(false);
          break;
        case Stage::kWarm:
          warm.Round(false);
          break;
        case Stage::kDrift:
          drift.Rounds(kSideDriftPerBatch, nullptr, false);
          break;
      }
    }
  };
  for (int r = 0; r < kMinFocusRounds || Clock::now() < deadline; ++r) {
    run_due_slots(false);
    switch (focus) {
      case Stage::kCold:
        cold.Round(true);
        break;
      case Stage::kWarm:
        warm.Round(true);
        break;
      case Stage::kDrift: {
        // Reseal until the next side slot (or the deadline) falls due.
        const Clock::time_point until =
            next_slot < slots.size() ? std::min(slots[next_slot].due, deadline)
                                     : deadline;
        drift.Rounds(1, &until, true);
        break;
      }
    }
  }
  run_due_slots(true);
  const double window_s = MsSince(window_start) / 1e3;

  Checks checks;
  cold.Finish(args.seed, &checks);
  warm.Finish(args.seed, &checks);
  drift.Finish(&checks);
  const OpCount ops = w == "cold_start"   ? cold.ops
                      : w == "warm_serve" ? warm.ops
                                          : drift.ops;

  Metrics e2e;
  e2e.Add("setup_s", setup_s, "s");
  e2e.Add("cold_advice_ms", Median(cold.round_ms), "ms");
  e2e.AddCount("optimizer_calls", cold.optimizer_calls);
  e2e.Add("restart_ms", Median(warm.restart_ms), "ms");
  e2e.Add("advise_ms", Median(warm.advise_ms), "ms");
  e2e.Add("whatif_per_s",
          static_cast<double>(warm.streamed_answers) / warm.streamed_seconds,
          "1/s");
  e2e.Add("snapshot_bytes", static_cast<double>(warm.snapshot_bytes), "bytes");
  // The fastest batch of reseals (see DriftStage::batch_reseal_ms).
  e2e.Add("reseal_ms", Percentile(drift.batch_reseal_ms, 0), "ms");
  e2e.Add("reseal_request_p50_us", Percentile(drift.batch_p50_us, 0), "us");
  e2e.Add("peak_rss_mb", PeakRssMb(), "MB");

  std::printf("workload %s seed %" PRIu64 ": window %.2f s; rounds cold %zu, "
              "warm %zu, reseals %zu in %zu batches; warm latency samples "
              "%zu\n",
              w.c_str(), args.seed, window_s, cold.round_ms.size(),
              warm.restart_ms.size(), drift.reseal_ms.size(),
              drift.batch_p50_us.size(), warm.request_us.size());
  if (!args.trace) {
    e2e.Print(checks.ok(), ops.attempted, ops.failed);
    return 0;
  }

  const LayerCounts counts = RunLayerProbe(&warm, args.seed, &checks);
  const std::string trace_path = args.work_dir + "/trace_" + w + "_seed" +
                                 std::to_string(args.seed) + ".json";
  if (!Tracer::Get().WriteChromeTrace(trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    return 2;
  }
  std::printf("trace: %zu spans written to %s\n", Tracer::Get().NumSpans(),
              trace_path.c_str());
  PrintSelfTimes(Tracer::Get().Summarize());
  std::printf("end-to-end figures of this traced run (compare with an "
              "untraced run of the same seed for the tracing overhead):\n");
  e2e.Print(checks.ok(), ops.attempted, ops.failed);
  Metrics layers;
  AddLayerMetrics(cold, warm, drift, counts, &layers);
  layers.Print(checks.ok(), ops.attempted, ops.failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto process_start = perfbench::Clock::now();
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  try {
    return perfbench::Run(args, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
