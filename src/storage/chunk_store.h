// The node-local specialized file system: a circular queue of chunks over
// the block flash (paper §III-B.3).
//
//  * Incoming chunks (own recordings or migrated data) are enqueued at the
//    tail; chunks migrated out are read at the head (oldest first) and
//    popped once the receiver acked every fragment.
//  * Blocks are consumed strictly in ring order, so per-block write counts
//    differ by at most one — the wear-levelling property the paper calls
//    out, verified by property tests.
//  * Head/used pointers are checkpointed to EEPROM every
//    `checkpoint_every_appends` mutations; `recover()` rebuilds the queue
//    from flash OOB tags after a crash.
#pragma once

#include <deque>
#include <optional>

#include "storage/chunk.h"
#include "storage/eeprom.h"
#include "storage/flash.h"

namespace enviromic::storage {

struct ChunkStoreConfig {
  std::uint32_t checkpoint_every_appends = 8;
};

class ChunkStore {
 public:
  ChunkStore(Flash& flash, Eeprom& eeprom, ChunkStoreConfig cfg = {});

  /// Blocks a chunk of `bytes` payload occupies (>= 1).
  std::uint32_t blocks_for(std::uint32_t bytes) const;

  bool can_fit(std::uint32_t bytes) const;

  /// Enqueue at the tail. Fails (returns false) when the ring lacks space;
  /// EnviroMic never overwrites unretrieved data, so a full store means
  /// recording misses. The chunk key must be pre-assigned via `next_key()`
  /// for own recordings, or kept as-is for migrated chunks.
  bool append(Chunk chunk);

  /// Mint the key for this node's next own recording.
  std::uint64_t next_key(net::NodeId self);

  /// Remove the oldest chunk (head) and return its descriptor. A migration
  /// reads the head first (head_meta(), read_payload()) and pops it only
  /// once every fragment is acked.
  std::optional<ChunkMeta> pop_head();

  /// Remove the newest chunk iff it has the given key (prelude erasure:
  /// non-keepers drop the prelude they just wrote).
  bool pop_tail_if(std::uint64_t key);

  const ChunkMeta* head_meta() const;

  std::size_t chunk_count() const { return chunks_.size(); }
  /// Bytes of audio payload stored (not counting block fragmentation).
  std::uint64_t used_payload_bytes() const { return used_payload_; }
  /// Capacity measures in block granularity — what actually runs out.
  std::uint64_t used_bytes() const;
  std::uint64_t free_bytes() const;
  std::uint64_t capacity_bytes() const { return flash_.capacity_bytes(); }
  bool full() const { return used_blocks_ == flash_.block_count(); }

  /// Iterate stored chunk metadata, oldest first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& sc : chunks_) fn(sc.meta);
  }

  /// Iterate stored chunk metadata, oldest first, stopping as soon as `fn`
  /// returns false — for callers that only need a prefix of the queue (e.g.
  /// a transfer offer over the next few head chunks of a large store).
  template <typename Fn>
  void for_each_until(Fn&& fn) const {
    for (const auto& sc : chunks_) {
      if (!fn(sc.meta)) return;
    }
  }

  /// Read back a stored chunk's payload (empty unless the flash stores
  /// payloads).
  std::vector<std::uint8_t> read_payload(std::uint64_t key) const;

  /// Iterate stored chunks oldest first with payloads materialized — one
  /// linear pass, unlike per-key read_payload() which rescans the queue.
  template <typename Fn>
  void for_each_with_payload(Fn&& fn) const {
    for (const auto& sc : chunks_) fn(sc.meta, read_blocks(sc));
  }

  /// Copy out, oldest first, the chunks whose descriptor satisfies `want`,
  /// payloads included: one linear pass that reads only the matches' blocks.
  template <typename Pred>
  std::vector<Chunk> copy_if(Pred&& want) const {
    std::vector<Chunk> out;
    for (const auto& sc : chunks_)
      if (want(sc.meta)) out.push_back(Chunk{sc.meta, read_blocks(sc)});
    return out;
  }

  /// Force an EEPROM checkpoint now.
  void checkpoint();

  /// Rebuild a store from a crashed node's flash + last EEPROM checkpoint.
  /// Chunks fully written after the checkpoint are recovered too (their tags
  /// are walked forward from the checkpointed state); at worst the final,
  /// partially-written chunk is dropped.
  static ChunkStore recover(Flash& flash, Eeprom& eeprom,
                            ChunkStoreConfig cfg = {});

  /// In-place variant of `recover()` for a live node rebooting: drop all
  /// in-RAM state and rebuild the queue from this store's own flash + EEPROM.
  /// The chunk counter restarts past the checkpointed value with a safety
  /// margin, so keys minted before the crash (including ones already
  /// migrated to other nodes) are never reissued.
  void reload_from_flash();

  std::uint64_t appends() const { return appends_; }
  std::uint64_t rejected_appends() const { return rejected_; }

 private:
  struct Stored {
    ChunkMeta meta;
    std::uint32_t first_block;
    std::uint32_t block_count;
  };

  std::uint32_t ring_next(std::uint32_t b) const;
  std::uint32_t tail_block() const;  //!< first free block position
  std::vector<std::uint8_t> read_blocks(const Stored& sc) const;

  Flash& flash_;
  Eeprom& eeprom_;
  ChunkStoreConfig cfg_;
  std::deque<Stored> chunks_;
  std::uint32_t head_block_ = 0;
  std::uint32_t used_blocks_ = 0;
  std::uint64_t used_payload_ = 0;
  std::uint32_t chunk_counter_ = 0;
  std::uint64_t appends_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint32_t mutations_since_checkpoint_ = 0;
};

}  // namespace enviromic::storage
