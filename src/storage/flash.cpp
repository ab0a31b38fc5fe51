#include "storage/flash.h"

#include <algorithm>
#include <cassert>

namespace enviromic::storage {

Flash::Flash(FlashConfig cfg)
    : cfg_(cfg),
      block_count_(static_cast<std::uint32_t>(cfg.capacity_bytes / kBlockSize)),
      wear_(block_count_, 0),
      min_count_(block_count_),
      tags_(block_count_),
      payloads_(cfg.store_payloads ? block_count_ : 0) {
  assert(block_count_ > 0);
}

void Flash::write_block(std::uint32_t index, const BlockTag& tag,
                        std::span<const std::uint8_t> payload) {
  assert(index < block_count_);
  assert(payload.size() <= kBlockSize);
  const std::uint64_t old = wear_[index]++;
  // Keep min/max wear O(1): the telemetry plane reads them every sample on
  // every node, so scanning the block array per read is a per-sample
  // O(blocks) tax. Max only ever moves on a write; min moves when the last
  // block at the current floor is written, and the recount that follows
  // amortizes to O(1) — it can only happen once per block_count_ writes.
  if (wear_[index] > max_wear_) max_wear_ = wear_[index];
  if (old == min_wear_ && --min_count_ == 0) {
    ++min_wear_;
    for (const std::uint64_t w : wear_) min_count_ += w == min_wear_;
    assert(min_count_ > 0);
  }
  ++total_writes_;
  if (wear_[index] > cfg_.write_limit) ++over_limit_;
  tags_[index] = tag;
  if (cfg_.store_payloads) {
    payloads_[index].assign(payload.begin(), payload.end());
  }
}

void Flash::clear_block(std::uint32_t index) {
  assert(index < block_count_);
  tags_[index].reset();
  if (cfg_.store_payloads) payloads_[index].clear();
}

const std::optional<BlockTag>& Flash::tag(std::uint32_t index) const {
  assert(index < block_count_);
  return tags_[index];
}

std::span<const std::uint8_t> Flash::payload(std::uint32_t index) const {
  assert(index < block_count_);
  if (!cfg_.store_payloads) return {};
  return payloads_[index];
}

std::uint64_t Flash::wear(std::uint32_t index) const {
  assert(index < block_count_);
  return wear_[index];
}

std::uint64_t Flash::max_wear() const {
  assert(max_wear_ == *std::max_element(wear_.begin(), wear_.end()));
  return max_wear_;
}

std::uint64_t Flash::min_wear() const {
  assert(min_wear_ == *std::min_element(wear_.begin(), wear_.end()));
  return min_wear_;
}

}  // namespace enviromic::storage
