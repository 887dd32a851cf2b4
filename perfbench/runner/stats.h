// Order statistics for the benchmark's reported timings.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

// Samples that must lie strictly above a reported percentile: a tail
// percentile is only printed when at least this many samples sit beyond it.
inline constexpr std::size_t kMinBeyond = 10;

// Median; the mean of the two middle values for an even count. Requires a
// non-empty input.
double Median(std::vector<double> values);

// Nearest-rank q-quantile (q in (0, 1]): the ceil(q * n)-th smallest sample.
// Returns nullopt unless at least `min_beyond` samples rank above it, so a
// p90 needs n >= 100 and a p99 n >= 1000.
std::optional<double> TailPercentile(std::vector<double> values, double q,
                                     std::size_t min_beyond = kMinBeyond);

// Smallest sample count for which TailPercentile(q, min_beyond) is defined.
std::size_t MinSamplesFor(double q, std::size_t min_beyond = kMinBeyond);

}  // namespace perfbench
