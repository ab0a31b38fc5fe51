// A chunk: the unit of recorded data and of migration, a descriptor
// (ChunkMeta, paper §III-B.3) plus its audio payload. A chunk key uniquely
// identifies a chunk network-wide (recorder id + per-recorder counter) so
// migrated copies can be deduplicated in analysis and acked
// fragment-by-fragment in transfer.
#pragma once

#include <cstdint>
#include <vector>

#include "net/message.h"

namespace enviromic::storage {

/// The descriptor is declared next to EventId in net/message.h, where the
/// wire frames that carry it whole can see it.
using ChunkMeta = net::ChunkMeta;

struct Chunk {
  ChunkMeta meta;
  /// Audio payload; empty when the experiment only tracks byte counts.
  std::vector<std::uint8_t> payload;
};

/// Build the globally unique key for the `counter`-th chunk of `recorder`.
constexpr std::uint64_t make_chunk_key(net::NodeId recorder,
                                       std::uint32_t counter) {
  return (static_cast<std::uint64_t>(recorder) << 32) | counter;
}

constexpr net::NodeId chunk_key_node(std::uint64_t key) {
  return static_cast<net::NodeId>(key >> 32);
}

}  // namespace enviromic::storage
