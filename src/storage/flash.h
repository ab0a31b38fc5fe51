// Simulated NAND-flash block device.
//
// The paper's nodes have a 0.5 MB flash divided into 256-byte blocks,
// written as a circular queue so "all the blocks receive almost the same
// number of write operations (different by at most 1)" — flash has write
// limits, so the layout is the wear-levelling policy. This device tracks a
// per-block write count and an out-of-band tag per block (as NAND pages
// carry OOB metadata) so a crashed node's contents can be reassembled.
// Payload storage is optional: bulk experiments only need byte accounting,
// while the Fig 8 study stores real samples.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/message.h"

namespace enviromic::storage {

/// Out-of-band metadata written next to each block, enough to reassemble
/// chunks after a crash: the block's position in its chunk and the chunk's
/// descriptor. Every block carries `meta.key`; the first block carries the
/// whole descriptor, erasure-coding identity included, so a recovered
/// fragment still names the original it reconstructs.
struct BlockTag {
  std::uint32_t frag_index = 0;
  std::uint32_t frag_count = 0;
  net::ChunkMeta meta;
};

/// Flash block size, paper §III-B.3.
inline constexpr std::uint32_t kBlockSize = 256;

struct FlashConfig {
  std::uint64_t capacity_bytes = 512 * 1024;  //!< 0.5 MB, paper §I
  bool store_payloads = false;
  /// Nominal endurance per block; exceeding it only raises a counter (real
  /// parts degrade statistically), letting tests assert the budget holds.
  std::uint64_t write_limit = 10000;
};

class Flash {
 public:
  explicit Flash(FlashConfig cfg = {});

  std::uint64_t capacity_bytes() const { return cfg_.capacity_bytes; }
  std::uint32_t block_count() const { return block_count_; }

  /// Write one block: bumps wear, stores the tag, optionally the payload.
  /// `payload` may be shorter than a block (final fragment).
  void write_block(std::uint32_t index, const BlockTag& tag,
                   std::span<const std::uint8_t> payload = {});

  /// Logically erase a block (tag removed; wear counted on write only).
  void clear_block(std::uint32_t index);

  const std::optional<BlockTag>& tag(std::uint32_t index) const;
  std::span<const std::uint8_t> payload(std::uint32_t index) const;

  std::uint64_t wear(std::uint32_t index) const;
  std::uint64_t max_wear() const;
  std::uint64_t min_wear() const;
  std::uint64_t total_writes() const { return total_writes_; }
  std::uint64_t over_limit_writes() const { return over_limit_; }

 private:
  FlashConfig cfg_;
  std::uint32_t block_count_;
  std::vector<std::uint64_t> wear_;
  // Cached wear extrema (telemetry reads them every sample on every node);
  // write_block keeps them current, min via a count of floor-wear blocks.
  std::uint64_t max_wear_ = 0;
  std::uint64_t min_wear_ = 0;
  std::uint32_t min_count_;
  std::vector<std::optional<BlockTag>> tags_;
  std::vector<std::vector<std::uint8_t>> payloads_;  //!< empty unless stored
  std::uint64_t total_writes_ = 0;
  std::uint64_t over_limit_ = 0;
};

}  // namespace enviromic::storage
