// A data mule (paper §I/§II-C: "data retrieval is done either by
// occasionally sending data mules into the field or by physically
// collecting the sensor nodes"; cf. the authors' companion EnviroStore
// work). The mule walks a path through the deployment with its own radio,
// periodically broadcasting harvest queries; nodes in range upload (and
// free) their stored chunks, extending the network's effective storage
// lifetime between visits.
#pragma once

#include <memory>
#include <set>

#include "acoustic/mobility.h"
#include "core/world.h"
#include "net/radio.h"
#include "storage/chunk.h"
#include "storage/file_index.h"

namespace enviromic::core {

struct MuleConfig {
  double speed_ft_s = 4.0;                          //!< walking pace
  net::NodeId mule_id = 60000;
};

class DataMule {
 public:
  /// The mule enters at `start`, walks `path` at the configured speed, and
  /// leaves the field when the path ends (queries stop).
  DataMule(World& world, std::vector<sim::Position> path, sim::Time start,
           MuleConfig cfg = {});

  /// Register timers. Call after World::start().
  void start();

  const storage::FileIndex& collected() const { return collected_; }
  std::size_t chunks_collected() const { return chunks_; }
  std::uint64_t bytes_collected() const { return bytes_; }
  /// Chunk metadata list, for coverage accounting at the basestation.
  const std::vector<storage::ChunkMeta>& collected_metas() const {
    return metas_;
  }
  bool in_field(sim::Time t) const;

 private:
  void tick();

  World& world_;
  MuleConfig cfg_;
  acoustic::WaypointTrajectory path_;
  sim::Time start_;
  sim::Time walk_duration_;
  std::unique_ptr<net::Radio> radio_;
  storage::FileIndex collected_;
  std::vector<storage::ChunkMeta> metas_;
  std::set<std::uint64_t> seen_;  //!< collected chunk keys (dedupe)
  std::uint32_t next_query_ = 1;
  std::size_t chunks_ = 0;
  std::uint64_t bytes_ = 0;
  bool started_ = false;
};

}  // namespace enviromic::core
