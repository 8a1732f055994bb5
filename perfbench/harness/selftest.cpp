// Self-test of the harness's statistics and trace arithmetic on hand-made
// data. Built beside the harness; perfbench/run.py runs it after each build
// and refuses to benchmark when it fails.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/stats.hpp"
#include "harness/trace.hpp"

namespace {

int failures = 0;

void expect(bool condition, const std::string& what) {
  if (!condition) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-12 * std::max(1.0, std::abs(b)); }

std::vector<double> ramp(std::size_t n) {
  std::vector<double> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(static_cast<double>(n - i));  // unsorted
  return out;
}

bool throws_sample_rule(const std::vector<double>& samples, double p) {
  try {
    (void)perfbench::percentile(samples, p, "test");
  } catch (const perfbench::SampleRuleError&) {
    return true;
  }
  return false;
}

void percentile_sample_rule() {
  using perfbench::min_samples_for;
  using perfbench::samples_beyond;
  expect(min_samples_for(0.50) == 20, "p50 needs 20 samples");
  // R-7 interpolates between sorted samples lo = floor(p (n - 1)) and lo + 1,
  // so the samples beyond the percentile are those above index lo.
  expect(min_samples_for(0.90) == 92, "p90 needs 92 samples");
  expect(min_samples_for(0.99) == 902, "p99 needs 902 samples");
  expect(samples_beyond(902, 0.99) == 10, "902 samples leave 10 beyond p99");
  expect(samples_beyond(901, 0.99) == 9, "901 samples leave 9 beyond p99");
  expect(throws_sample_rule(ramp(901), 0.99), "p99 of 901 samples is refused");
  expect(throws_sample_rule(ramp(19), 0.50), "p50 of 19 samples is refused");
  expect(!throws_sample_rule(ramp(1000), 0.99), "p99 of 1000 samples is allowed");
  // R-7 on 1..1000: h = 0.99 * 999 = 989.01 -> 990 + 0.01.
  expect(near(perfbench::percentile(ramp(1000), 0.99, "t"), 990.01), "p99 of 1..1000");
  expect(near(perfbench::percentile(ramp(20), 0.50, "t"), 10.5), "p50 of 1..20");
  // Three blocks of 200: the middle block's p50 is the median of the three.
  std::vector<double> blocks;
  for (const double level : {10.0, 1000.0, 20.0}) {
    for (int i = 0; i < 200; ++i) blocks.push_back(level + 0.001 * i);
  }
  expect(near(perfbench::block_percentile(blocks, 0.5, "t"), 20.0 + 0.001 * 99.5),
         "block percentile is the median of the blocks' percentiles");
  expect(near(perfbench::block_percentile(ramp(300), 0.5, "t"), 150.5),
         "one block's worth is the pooled percentile");
  expect(throws_sample_rule(std::vector<double>(401, 1.0), 0.99),
         "p99 of 401 samples is refused");
  expect(perfbench::percentile_block(0.5) == 200 && perfbench::percentile_block(0.99) == 902,
         "block sizes follow the sample rule");
  expect(near(perfbench::median({3.0, 1.0, 2.0}), 2.0), "odd median");
  expect(near(perfbench::median({4.0, 1.0, 2.0, 3.0}), 2.5), "even median");
}

void due_time_latency() {
  using perfbench::TimedRequest;
  // Sent late because the previous reply came back late: latency counts
  // from the due time.
  const TimedRequest late{.due = 1.0, .ready = 1.5, .sent = 1.5, .done = 1.6, .ok = true};
  expect(near(perfbench::due_latency(late), 0.6), "latency is timed from the due time");
  const std::vector<TimedRequest> requests = {
      {.due = 0.0, .ready = 0.0, .sent = 0.0, .done = 0.010, .ok = true},   // within
      {.due = 1.0, .ready = 1.0, .sent = 1.0, .done = 1.030, .ok = true},   // too slow
      {.due = 2.0, .ready = 2.0, .sent = 2.0, .done = 2.001, .ok = false},  // failed
      {.due = 3.0, .ready = 3.0, .sent = 3.0, .done = 3.001, .ok = false},  // rejected
  };
  expect(near(perfbench::within_limit_share(requests, 0.020), 0.25),
         "failures and rejections count as SLO misses");
  expect(near(perfbench::within_limit_share({}, 0.020), 0.0), "empty series");
}

void generator_lag_accounting() {
  using perfbench::TimedRequest;
  // Free before the due time: lag is the overshoot past the due time.
  expect(near(perfbench::generator_lag({.due = 2.0, .ready = 1.0, .sent = 2.0003}), 0.0003),
         "lag past the due time");
  // Free only after the due time (previous reply late): the wait is backlog,
  // the lag is only what the generator added after becoming free.
  expect(near(perfbench::generator_lag({.due = 2.0, .ready = 2.5, .sent = 2.5002}), 0.0002),
         "backlog is not generator lag");
}

void span_self_time() {
  using perfbench::Span;
  // root [0,10): children [1,3) and [2,5) overlap, [8,12) runs past the end.
  const std::vector<Span> spans = {
      {"verdict", 0.0, 10.0, -1, 1, 0},  {"a", 1.0, 3.0, 0, 1, 0},
      {"b", 2.0, 5.0, 0, 1, 0},          {"c", 8.0, 12.0, 0, 1, 0},
      {"a.inner", 1.5, 2.0, 1, 1, 0},    {"other", 0.0, 10.0, -1, 2, 1},
  };
  expect(near(perfbench::self_time(spans, 0), 10.0 - 4.0 - 2.0), "root self time");
  expect(near(perfbench::self_time(spans, 1), 1.5), "child self time");
  expect(near(perfbench::self_time(spans, 4), 0.5), "leaf self time");
  expect(near(perfbench::union_length({{0, 1}, {0.5, 2}, {3, 4}}), 3.0), "interval union");
  // Thread 0 is busy [0,10); children cover [1,5) and [8,10) -> 6 of 10.
  expect(near(perfbench::unattributed_share(spans, 0, 0.0, 10.0), 0.4), "residual share");
  expect(near(perfbench::unattributed_share(spans, 1, 0.0, 10.0), 1.0),
         "a thread with no layer spans is all residual");
  perfbench::SpanRecorder off(false);
  { const perfbench::ScopedSpan span(off, "x"); }
  expect(off.spans().empty(), "a disabled recorder keeps nothing");
  perfbench::SpanRecorder on(true);
  {
    const perfbench::ScopedSpan outer(on, "outer");
    const perfbench::ScopedSpan inner(on, "inner", outer.index());
  }
  const std::vector<Span> recorded = on.spans();
  expect(recorded.size() == 2 && recorded[1].parent == 0 && recorded[0].end >= recorded[1].end,
         "scoped spans nest");
  const std::vector<double> outer_self = on.self_times("outer");
  expect(outer_self.size() == 1 &&
             near(outer_self[0], (recorded[0].end - recorded[0].start) -
                                     (recorded[1].end - recorded[1].start)),
         "recorder self times subtract children");
}

}  // namespace

int main() {
  percentile_sample_rule();
  due_time_latency();
  generator_lag_accounting();
  span_self_time();
  if (failures > 0) {
    std::fprintf(stderr, "selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("selftest: ok\n");
  return 0;
}
