#include "harness/stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const auto lo = static_cast<std::size_t>(std::floor(p * static_cast<double>(n - 1)));
  return n - 1 - std::min(lo, n - 1);
}

std::size_t min_samples_for(double p) {
  std::size_t n = kMinSamplesBeyond;
  while (samples_beyond(n, p) < kMinSamplesBeyond) ++n;
  return n;
}

double percentile(std::vector<double> samples, double p, const std::string& what) {
  const std::size_t beyond = samples_beyond(samples.size(), p);
  if (beyond < kMinSamplesBeyond) {
    throw SampleRuleError(what + ": p" + std::to_string(static_cast<int>(std::lround(p * 100))) +
                          " of " + std::to_string(samples.size()) + " samples has only " +
                          std::to_string(beyond) + " beyond it (need " +
                          std::to_string(kMinSamplesBeyond) + ")");
  }
  std::sort(samples.begin(), samples.end());
  const double h = p * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  if (lo + 1 >= samples.size()) return samples.back();
  return samples[lo] + (h - static_cast<double>(lo)) * (samples[lo + 1] - samples[lo]);
}

std::size_t percentile_block(double p) { return std::max(kPercentileBlock, min_samples_for(p)); }

double block_percentile(const std::vector<double>& samples, double p, const std::string& what) {
  const std::size_t block = percentile_block(p);
  const std::size_t blocks = std::max<std::size_t>(1, samples.size() / block);
  if (blocks == 1) return percentile(samples, p, what);
  std::vector<double> values;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(b * block);
    const auto last = b + 1 == blocks ? samples.end() : first + static_cast<std::ptrdiff_t>(block);
    values.push_back(percentile(std::vector<double>(first, last), p, what));
  }
  return median(std::move(values));
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid] : 0.5 * (samples[mid - 1] + samples[mid]);
}

double due_latency(const TimedRequest& request) { return request.done - request.due; }

double generator_lag(const TimedRequest& request) {
  return request.sent - std::max(request.due, request.ready);
}

double within_limit_share(const std::vector<TimedRequest>& requests, double limit) {
  if (requests.empty()) return 0.0;
  const auto within = std::count_if(requests.begin(), requests.end(), [&](const TimedRequest& r) {
    return r.ok && due_latency(r) <= limit;
  });
  return static_cast<double>(within) / static_cast<double>(requests.size());
}

}  // namespace perfbench
