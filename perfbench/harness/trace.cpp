#include "harness/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

namespace perfbench {

namespace {
std::chrono::steady_clock::time_point origin() {
  static const auto value = std::chrono::steady_clock::now();
  return value;
}
}  // namespace

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin()).count();
}

void sleep_until_seconds(double seconds) {
  std::this_thread::sleep_until(
      origin() + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(seconds)));
}

int SpanRecorder::open(std::string name, int parent, std::uint64_t verdict, unsigned thread) {
  if (!enabled_) return -1;
  const double start = now_seconds();
  const std::scoped_lock lock(mutex_);
  spans_.push_back({std::move(name), start, start, parent, verdict, thread});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::close(int index) {
  if (!enabled_ || index < 0) return;
  const double end = now_seconds();
  const std::scoped_lock lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end = end;
}

std::vector<Span> SpanRecorder::spans() const {
  const std::scoped_lock lock(mutex_);
  return spans_;
}

std::vector<double> SpanRecorder::self_times(const std::string& name) const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::size_t>> children(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].parent >= 0) children[static_cast<std::size_t>(all[i].parent)].push_back(i);
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].name == name) out.push_back(self_time(all, i, children[i]));
  }
  return out;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::scoped_lock lock(mutex_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"parent\":%d,"
                 "\"verdict\":%llu,\"thread\":%u}\n",
                 i, s.name.c_str(), s.start, s.end, s.parent,
                 static_cast<unsigned long long>(s.verdict), s.thread);
  }
  return std::fclose(file) == 0;
}

double union_length(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_start = 0.0;
  double cur_end = 0.0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (!open || start > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = start;
      cur_end = end;
      open = true;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

double self_time(const std::vector<Span>& spans, std::size_t index,
                 const std::vector<std::size_t>& children) {
  const Span& parent = spans[index];
  std::vector<std::pair<double, double>> covered;
  for (const std::size_t child : children) {
    covered.emplace_back(std::max(spans[child].start, parent.start),
                         std::min(spans[child].end, parent.end));
  }
  return (parent.end - parent.start) - union_length(std::move(covered));
}

double self_time(const std::vector<Span>& spans, std::size_t index) {
  std::vector<std::size_t> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == static_cast<int>(index)) children.push_back(i);
  }
  return self_time(spans, index, children);
}

double unattributed_share(const std::vector<Span>& spans, unsigned thread, double window_start,
                          double window_end) {
  std::vector<std::pair<double, double>> busy;
  std::vector<std::pair<double, double>> covered;
  for (const Span& span : spans) {
    if (span.thread != thread) continue;
    auto& into = span.parent < 0 ? busy : covered;
    into.emplace_back(std::max(span.start, window_start), std::min(span.end, window_end));
  }
  const double busy_time = union_length(std::move(busy));
  if (busy_time <= 0.0) return 0.0;
  return std::max(0.0, 1.0 - union_length(std::move(covered)) / busy_time);
}

}  // namespace perfbench
