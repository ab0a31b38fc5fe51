// 2-D positions for node deployments and acoustic sources. The paper's
// testbeds are planar (8x6 grid at 2 ft spacing; ~105x105 ft forest plot),
// so distances are in feet throughout.
#pragma once

#include <cmath>

namespace enviromic::sim {

struct Position {
  double x = 0.0;
  double y = 0.0;

  friend bool operator==(const Position&, const Position&) = default;
};

inline double distance(const Position& a, const Position& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

/// Linear interpolation between two positions, t in [0, 1].
inline Position lerp(const Position& a, const Position& b, double t) {
  return {a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t};
}

}  // namespace enviromic::sim
