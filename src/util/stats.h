// Small statistics helpers: the mean, deviation, 90% confidence interval and
// min/max that bench/paper reports over repeated runs, and the EWMA that the
// detector's background estimate and the balancer's acquisition rate use.
#pragma once

#include <cstddef>
#include <vector>

namespace enviromic::util {

/// Arithmetic mean of `xs`. Returns 0 for an empty vector.
double mean(const std::vector<double>& xs);

/// Sample variance (n-1 denominator). Returns 0 for fewer than two samples.
double variance(const std::vector<double>& xs);

/// Sample standard deviation.
double stddev(const std::vector<double>& xs);

/// Half-width of the 90% confidence interval of the mean, using the normal
/// approximation (z = 1.645). The paper reports 90% CIs over 15 runs; with
/// that sample size the normal approximation is within a few percent of the
/// t-distribution and keeps us free of a stats dependency.
double ci90_halfwidth(const std::vector<double>& xs);

/// min/max of a non-empty vector; (0, 0) when empty.
std::pair<double, double> minmax(const std::vector<double>& xs);

/// Exponentially weighted moving average, as used by the paper for the data
/// acquisition rate R(t) = R(t-1)(1-alpha) + r*alpha.
class Ewma {
 public:
  explicit Ewma(double alpha, double initial = 0.0)
      : alpha_(alpha), value_(initial) {}

  double update(double sample) {
    value_ = value_ * (1.0 - alpha_) + sample * alpha_;
    return value_;
  }

  double value() const { return value_; }
  void reset(double v) { value_ = v; }
  double alpha() const { return alpha_; }

 private:
  double alpha_;
  double value_;
};

}  // namespace enviromic::util
