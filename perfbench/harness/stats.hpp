// Statistics the benchmark reports, kept apart from the workloads so the
// self-test can check them on hand-made data.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Thrown when a percentile is asked of a run that cannot support it.
class SampleRuleError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Samples a percentile needs beyond it before the harness reports it.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Number of the n sorted samples that lie above the lower interpolation
/// point of the p-quantile (R-7: h = p (n - 1)).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// Smallest sample count for which `p` satisfies the sample rule.
[[nodiscard]] std::size_t min_samples_for(double p);

/// R-7 quantile of `samples`. Throws SampleRuleError when fewer than
/// kMinSamplesBeyond samples lie beyond it; `what` names the series in the
/// message.
[[nodiscard]] double percentile(std::vector<double> samples, double p, const std::string& what);

/// Smallest block block_percentile uses.
inline constexpr std::size_t kPercentileBlock = 200;

/// Samples per block of block_percentile for `p`: kPercentileBlock, or what
/// the sample rule needs if that is more (902 for p99).
[[nodiscard]] std::size_t percentile_block(double p);

/// Median over consecutive blocks of percentile_block(p) samples (the
/// trailing remainder joins the last block) of each block's R-7 quantile, so
/// a transient slowdown moves one block, not the reported value. Every block
/// meets the sample rule; fewer than two blocks' worth of samples gives the
/// pooled percentile.
[[nodiscard]] double block_percentile(const std::vector<double>& samples, double p,
                                      const std::string& what);

/// Median without the sample rule, for per-layer summaries of a handful of
/// probe calls. Returns 0 for an empty series.
[[nodiscard]] double median(std::vector<double> samples);

/// One open-loop request, timed from when it was due. All times are seconds
/// on one steady clock.
struct TimedRequest {
  double due = 0.0;    ///< when the schedule said to send it
  double ready = 0.0;  ///< when its sender was free to send it
  double sent = 0.0;   ///< when it was actually sent
  double done = 0.0;   ///< when its verdict was complete
  bool ok = false;     ///< answered, matched its reference, not rejected
};

/// Latency as the user sees it: from the due time, so a stall that delays
/// later sends is charged to them.
[[nodiscard]] double due_latency(const TimedRequest& request);

/// How late the generator itself ran: the send time minus the later of the
/// due time and the moment the sender became free. Waiting for the previous
/// reply is backlog, not generator lag.
[[nodiscard]] double generator_lag(const TimedRequest& request);

/// Share of `requests` answered ok within `limit` seconds of their due time.
/// Failed or rejected requests count as misses. 0 for an empty series.
[[nodiscard]] double within_limit_share(const std::vector<TimedRequest>& requests, double limit);

}  // namespace perfbench
