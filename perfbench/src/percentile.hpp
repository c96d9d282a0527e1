// Nearest-rank percentiles that refuse to extrapolate.
//
// A percentile is reported only when at least kMinBeyond samples lie
// strictly above its rank, so a p90 needs >= 100 samples and a p99 needs
// >= 1000.  The result carries the sample count it was taken over, so a
// report can state it next to the value.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  // sample count the percentile was taken over
  std::size_t beyond = 0;   // samples ranked strictly above it
};

/// Nearest-rank percentile `pct` in (0, 100) of `samples`: the k-th
/// smallest value with k = ceil(pct/100 * n).  nullopt when fewer than
/// `min_beyond` samples rank above it (or `pct` is out of range).
inline std::optional<Percentile> percentile(std::vector<double> samples,
                                            double pct,
                                            std::size_t min_beyond =
                                                kMinBeyond) {
  const std::size_t n = samples.size();
  if (n == 0 || !(pct > 0.0 && pct < 100.0)) return std::nullopt;
  // The epsilon keeps exact products (90% of 100 = 90) from rounding up.
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return Percentile{samples[rank - 1], n, n - rank};
}

/// Smallest sample count at which percentile(·, pct) is reported.
inline std::size_t min_samples_for(double pct,
                                   std::size_t min_beyond = kMinBeyond) {
  std::size_t n = 1;
  while (n - static_cast<std::size_t>(std::ceil(
                 pct / 100.0 * static_cast<double>(n) - 1e-9)) <
         min_beyond)
    ++n;
  return n;
}

}  // namespace perfbench
