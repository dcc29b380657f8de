#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

thread_local int32_t t_current = -1;
thread_local uint64_t t_round = 0;
thread_local uint32_t t_thread = 0;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int32_t Tracer::Begin(const char* name, double items) {
  if (t_thread == 0) {
    t_thread = next_thread_.fetch_add(1, std::memory_order_relaxed);
  }
  SpanRecord rec;
  rec.name = name;
  rec.parent = t_current;
  rec.thread = t_thread;
  rec.round = t_round;
  rec.items = items;
  std::lock_guard<std::mutex> lock(mu_);
  if (++opened_[name] > kMaxSpansPerName) return -1;
  rec.start_ns = NowNs();
  spans_.push_back(rec);
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::End(int32_t index) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

void Tracer::SetItems(int32_t index, double items) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].items = items;
}

uint64_t Tracer::NewRound() {
  return next_round_.fetch_add(1, std::memory_order_relaxed);
}

size_t Tracer::NumSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, SpanSummary> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      child_ms[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  std::map<std::string, SpanSummary> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    SpanSummary& sum = out[s.name];
    sum.count += 1;
    sum.total_ms += ms;
    sum.self_ms += ms - child_ms[i];
    sum.total_items += s.items;
    sum.span_ns.push_back(ms * 1e6);
    sum.per_item_ns.push_back(ms * 1e6 / (s.items > 0 ? s.items : 1));
  }
  for (const auto& [name, opened] : opened_) {
    out[name].dropped = opened - out[name].count;
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"round\":%llu,\"items\":%.17g}}%s\n",
                 s.name, s.thread,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 static_cast<unsigned long long>(s.round), s.items,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

Span::Span(const char* name, double items) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.armed()) return;
  index_ = tracer.Begin(name, items);
  if (index_ < 0) return;
  saved_parent_ = t_current;
  t_current = index_;
}

Span::~Span() {
  if (index_ < 0) return;
  Tracer::Get().End(index_);
  t_current = saved_parent_;
}

void Span::set_items(double items) {
  if (index_ >= 0) Tracer::Get().SetItems(index_, items);
}

void BeginRound() {
  Tracer& tracer = Tracer::Get();
  if (tracer.armed()) t_round = tracer.NewRound();
}

}  // namespace perfbench
