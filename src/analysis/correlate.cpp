#include "analysis/correlate.h"

#include <algorithm>

namespace enviromic::analysis {

namespace {

/// Files whose time ranges come within this gap may be the same event...
constexpr sim::Time kMaxGap = sim::Time::millis(1500);
/// ... if their recorder centroids are also within this distance (feet).
constexpr double kMaxDistanceFt = 8.0;

struct FileFacts {
  net::EventId id;
  sim::Time start;
  sim::Time end;
  sim::Time covered;
  std::uint64_t bytes;
  sim::Position centroid;
  std::size_t recorders;
};

FileFacts facts_of(const storage::FileIndex& index, const net::EventId& event,
                   const std::map<net::NodeId, sim::Position>& positions) {
  const auto s = index.summarize(event);
  FileFacts f;
  f.id = event;
  f.start = s.first_start;
  f.end = s.last_end;
  f.covered = s.covered;
  f.bytes = s.total_bytes;
  f.recorders = s.recorders.size();
  double x = 0, y = 0;
  std::size_t n = 0;
  for (const auto id : s.recorders) {
    const auto it = positions.find(id);
    if (it == positions.end()) continue;
    x += it->second.x;
    y += it->second.y;
    ++n;
  }
  f.centroid = n ? sim::Position{x / n, y / n} : sim::Position{0, 0};
  if (n == 0) f.recorders = 0;  // spatially unknown
  return f;
}

}  // namespace

std::vector<Vocalization> correlate_files(
    const storage::FileIndex& index,
    const std::map<net::NodeId, sim::Position>& positions) {
  std::vector<FileFacts> files;
  for (const auto& event : index.events()) {
    files.push_back(facts_of(index, event, positions));
  }
  std::sort(files.begin(), files.end(),
            [](const FileFacts& a, const FileFacts& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.id < b.id;
            });

  std::vector<Vocalization> out;
  // Spatial gating compares against the most recently merged file's own
  // centroid (not the running mean) so a moving source's chain of files
  // keeps merging as the locality drifts.
  std::vector<sim::Position> last_centroid;
  std::vector<bool> last_known;
  for (const auto& f : files) {
    const bool mergeable =
        !out.empty() &&
        f.start <= out.back().end + kMaxGap &&
        (f.recorders == 0 || !last_known.back() ||
         sim::distance(f.centroid, last_centroid.back()) <= kMaxDistanceFt);
    if (mergeable) {
      auto& v = out.back();
      // Weighted centroid by recorder count before extending.
      const double wa = static_cast<double>(v.recorder_count);
      const double wb = static_cast<double>(f.recorders);
      if (wa + wb > 0) {
        v.centroid.x = (v.centroid.x * wa + f.centroid.x * wb) / (wa + wb);
        v.centroid.y = (v.centroid.y * wa + f.centroid.y * wb) / (wa + wb);
      }
      v.files.push_back(f.id);
      v.end = std::max(v.end, f.end);
      v.covered += f.covered;  // approximation: files rarely overlap in time
      v.bytes += f.bytes;
      v.recorder_count += f.recorders;
      if (f.recorders > 0) {
        last_centroid.back() = f.centroid;
        last_known.back() = true;
      }
    } else {
      Vocalization v;
      v.files = {f.id};
      v.start = f.start;
      v.end = f.end;
      v.covered = f.covered;
      v.bytes = f.bytes;
      v.centroid = f.centroid;
      v.recorder_count = f.recorders;
      out.push_back(std::move(v));
      last_centroid.push_back(f.centroid);
      last_known.push_back(f.recorders > 0);
    }
  }
  return out;
}

ActivityProfile activity_profile(const std::vector<Vocalization>& events,
                                 sim::Time horizon, sim::Time bin_width) {
  ActivityProfile p;
  p.bin_width = bin_width;
  const auto bins = static_cast<std::size_t>(horizon / bin_width) + 1;
  p.events_per_bin.assign(bins, 0);
  p.seconds_per_bin.assign(bins, 0.0);
  for (const auto& v : events) {
    const auto bin = static_cast<std::size_t>(v.start / bin_width);
    if (bin < bins) {
      ++p.events_per_bin[bin];
      p.seconds_per_bin[bin] += v.covered.to_seconds();
    }
  }
  return p;
}

std::vector<std::vector<std::size_t>> spatial_profile(
    const std::vector<Vocalization>& events, double width, double height,
    std::size_t nx, std::size_t ny) {
  std::vector<std::vector<std::size_t>> grid(ny,
                                             std::vector<std::size_t>(nx, 0));
  for (const auto& v : events) {
    if (v.recorder_count == 0) continue;
    const auto gx = static_cast<std::size_t>(
        std::clamp(v.centroid.x / width, 0.0, 0.999) * static_cast<double>(nx));
    const auto gy = static_cast<std::size_t>(
        std::clamp(v.centroid.y / height, 0.0, 0.999) * static_cast<double>(ny));
    ++grid[gy][gx];
  }
  return grid;
}

}  // namespace enviromic::analysis
