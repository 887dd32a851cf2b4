#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

// 0-based index of the nearest-rank q-quantile among n sorted samples.
std::size_t RankIndex(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::max<std::size_t>(rank, 1) - 1;
}

}  // namespace

std::optional<double> TailPercentile(std::vector<double> values, double q,
                                     std::size_t min_beyond) {
  if (!(q > 0.0 && q <= 1.0)) throw std::invalid_argument("q must be in (0, 1]");
  const std::size_t n = values.size();
  if (n == 0) return std::nullopt;
  const std::size_t index = RankIndex(n, q);
  if (n - 1 - index < min_beyond) return std::nullopt;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

std::size_t MinSamplesFor(double q, std::size_t min_beyond) {
  std::size_t n = 1;
  while (n - 1 - RankIndex(n, q) < min_beyond) ++n;
  return n;
}

}  // namespace perfbench
