// Span recorder for the traced benchmark run. Spans wrap the harness's
// own calls into the src/ layers (tracing inside src/ is not part of
// this benchmark): name, start, end, parent span and a round id shared
// by every span of one round. Spans stay in memory and are written as
// Chrome trace-event JSON when the run ends (opens in Perfetto or
// chrome://tracing). Disarmed, a Span costs one relaxed load.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span on the same thread, -1 at top level.
  int32_t parent = -1;
  uint32_t thread = 0;
  uint64_t round = 0;
  /// Work items the span covers (a batch of N cost calls records N), so
  /// per-call figures divide the span by it.
  double items = 1;
};

/// Per-name aggregate over all recorded spans.
struct SpanSummary {
  int64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
  double total_items = 0;
  /// Spans past the per-name cap, counted but not recorded.
  int64_t dropped = 0;
  /// Per-span duration, and duration divided by its items, in ns.
  std::vector<double> span_ns;
  std::vector<double> per_item_ns;
};

class Tracer {
 public:
  static Tracer& Get();

  void Arm() { armed_.store(true, std::memory_order_relaxed); }
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// At most this many spans are recorded per name; later ones are
  /// counted only, so a long run's trace stays bounded.
  static constexpr int64_t kMaxSpansPerName = 50000;

  /// Opens a span on the calling thread; returns its index, or -1 when
  /// the name's cap is reached.
  int32_t Begin(const char* name, double items);
  void End(int32_t index);
  void SetItems(int32_t index, double items);

  /// Starts a new round on the calling thread: spans opened until the
  /// next call share the returned id.
  uint64_t NewRound();

  /// Aggregates by span name (self time = duration minus the time its
  /// direct children cover).
  std::map<std::string, SpanSummary> Summarize() const;
  size_t NumSpans() const;

  /// Writes every span as a Chrome trace-event JSON file.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> next_round_{1};
  std::atomic<uint32_t> next_thread_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
  /// Spans opened per name (recorded or dropped); guarded by mu_.
  std::map<std::string, int64_t> opened_;
};

/// RAII span; a no-op when the tracer is disarmed.
class Span {
 public:
  explicit Span(const char* name, double items = 1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void set_items(double items);

 private:
  int32_t index_ = -1;
  int32_t saved_parent_ = -1;
};

/// Starts a new round id on this thread (no-op when disarmed).
void BeginRound();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
