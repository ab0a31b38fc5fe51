#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace enviromic::util {

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size() - 1);
}

double stddev(const std::vector<double>& xs) { return std::sqrt(variance(xs)); }

double ci90_halfwidth(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  constexpr double kZ90 = 1.6449;
  return kZ90 * stddev(xs) / std::sqrt(static_cast<double>(xs.size()));
}

std::pair<double, double> minmax(const std::vector<double>& xs) {
  if (xs.empty()) return {0.0, 0.0};
  auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
  return {*lo, *hi};
}

}  // namespace enviromic::util
