// Small shared statistics helpers. Percentile is the one nearest-rank
// definition used by the daemon's per-verb latency metrics
// (service/metrics.h) and by e2ebench's latency figures, so the `stats`
// verb and the benchmark cannot disagree about what a p50 is.

#ifndef RDFALIGN_UTIL_STATS_H_
#define RDFALIGN_UTIL_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace rdfalign {

/// Nearest-rank percentile of `samples` (p in [0, 1]); 0 when empty.
/// The nearest-rank definition: the value at (1-based) rank ceil(p * n)
/// in the sorted list, so p95 of 10 samples is the 10th (the smallest
/// value with at least 95% of the mass at or below it), p=0 the minimum,
/// p=1 the maximum. Takes the vector by value — the sort must not
/// disturb the caller's recording order.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  const size_t idx = std::min(samples.size() - 1, std::max<size_t>(rank, 1) - 1);
  return samples[idx];
}

}  // namespace rdfalign

#endif  // RDFALIGN_UTIL_STATS_H_
