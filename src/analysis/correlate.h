// Basestation post-processing (paper §II): "more sophisticated temporal and
// spatial correlation algorithms can be performed on these files at
// basestations to extract more accurate information" — e.g. recognizing
// that two files refer to the same vocalization, and building the activity
// profiles the avian-ecology study needs (§IV-D).
#pragma once

#include <map>
#include <vector>

#include "sim/geometry.h"
#include "storage/file_index.h"

namespace enviromic::analysis {

/// One reconstructed acoustic event, possibly merged from several files
/// (duplicate leaders, leader hand-off misses, interrupted vocalizations).
struct Vocalization {
  std::vector<net::EventId> files;
  sim::Time start;
  sim::Time end;
  sim::Time covered;       //!< union of chunk coverage
  std::uint64_t bytes = 0;
  sim::Position centroid;  //!< mean recorder position
  std::size_t recorder_count = 0;
};

/// Merge the files of a retrieved FileIndex into distinct vocalizations.
/// `positions` maps node id -> deployment position (for spatial gating);
/// files recorded by unknown nodes merge on time alone.
std::vector<Vocalization> correlate_files(
    const storage::FileIndex& index,
    const std::map<net::NodeId, sim::Position>& positions);

/// Activity profile: events and recorded time per fixed-width time bin —
/// what "when do birds vocalize" boils down to.
struct ActivityProfile {
  sim::Time bin_width;
  std::vector<std::size_t> events_per_bin;
  std::vector<double> seconds_per_bin;
};

ActivityProfile activity_profile(const std::vector<Vocalization>& events,
                                 sim::Time horizon, sim::Time bin_width);

/// Spatial profile: vocalization counts rasterized onto an nx x ny grid
/// over [0, width] x [0, height] — "where do birds vocalize".
std::vector<std::vector<std::size_t>> spatial_profile(
    const std::vector<Vocalization>& events, double width, double height,
    std::size_t nx, std::size_t ny);

}  // namespace enviromic::analysis
