// Spans the traced run records around the harness's calls into each layer.
// Nothing here reaches into the library: a span starts before a public call
// and ends after it returns.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the process's first call.
[[nodiscard]] double now_seconds();

/// Sleep until now_seconds() reaches `seconds`.
void sleep_until_seconds(double seconds);

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;             ///< index into the recorder's spans, -1 = root
  std::uint64_t verdict = 0;   ///< verdict id the span serves (0 = none)
  unsigned thread = 0;         ///< harness thread that recorded it
};

/// In-memory span store. Disabled recorders ignore every call, so the
/// untraced run pays one branch per span.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span; returns its index (or -1 when disabled).
  int open(std::string name, int parent, std::uint64_t verdict, unsigned thread);
  void close(int index);

  /// Snapshot of every span (call once recording threads are done).
  [[nodiscard]] std::vector<Span> spans() const;

  /// Self times in seconds of the spans named `name` (see self_time).
  [[nodiscard]] std::vector<double> self_times(const std::string& name) const;

  /// Write one JSON object per span to `path`. Returns false on I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span over one call.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name, int parent = -1,
             std::uint64_t verdict = 0, unsigned thread = 0)
      : recorder_(recorder),
        index_(recorder.open(std::move(name), parent, verdict, thread)) {}
  ~ScopedSpan() { recorder_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int index() const { return index_; }

 private:
  SpanRecorder& recorder_;
  int index_;
};

/// Length of the union of [start, end) intervals.
[[nodiscard]] double union_length(std::vector<std::pair<double, double>> intervals);

/// A span's self time: its duration minus the part of it its children
/// cover (children clipped to the parent's interval, overlaps counted once).
[[nodiscard]] double self_time(const std::vector<Span>& spans, std::size_t index);

/// The same, with the indices of the span's children already known.
[[nodiscard]] double self_time(const std::vector<Span>& spans, std::size_t index,
                               const std::vector<std::size_t>& children);

/// Share of the busy time on `thread` within [window_start, window_end)
/// that no layer span covers — the time the trace cannot attribute. Busy
/// time is the union of root spans (verdicts, rounds); layer spans are the
/// spans with a parent.
[[nodiscard]] double unattributed_share(const std::vector<Span>& spans, unsigned thread,
                                        double window_start, double window_end);

}  // namespace perfbench
