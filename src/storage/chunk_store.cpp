#include "storage/chunk_store.h"

#include <algorithm>
#include <cassert>

namespace enviromic::storage {

ChunkStore::ChunkStore(Flash& flash, Eeprom& eeprom, ChunkStoreConfig cfg)
    : flash_(flash), eeprom_(eeprom), cfg_(cfg) {}

std::uint32_t ChunkStore::blocks_for(std::uint32_t bytes) const {
  return bytes == 0 ? 1 : (bytes + kBlockSize - 1) / kBlockSize;
}

bool ChunkStore::can_fit(std::uint32_t bytes) const {
  return blocks_for(bytes) <= flash_.block_count() - used_blocks_;
}

std::uint32_t ChunkStore::ring_next(std::uint32_t b) const {
  return (b + 1) % flash_.block_count();
}

std::uint32_t ChunkStore::tail_block() const {
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(head_block_) + used_blocks_) %
      flash_.block_count());
}

std::uint64_t ChunkStore::next_key(net::NodeId self) {
  return make_chunk_key(self, chunk_counter_++);
}

bool ChunkStore::append(Chunk chunk) {
  const std::uint32_t nblocks = blocks_for(chunk.meta.bytes);
  if (nblocks > flash_.block_count() - used_blocks_) {
    ++rejected_;
    return false;
  }
  std::uint32_t block = tail_block();
  for (std::uint32_t frag = 0; frag < nblocks; ++frag) {
    BlockTag tag;
    tag.frag_index = frag;
    tag.frag_count = nblocks;
    if (frag == 0)
      tag.meta = chunk.meta;
    else
      tag.meta.key = chunk.meta.key;
    std::span<const std::uint8_t> slice;
    if (!chunk.payload.empty()) {
      const std::size_t off = static_cast<std::size_t>(frag) * kBlockSize;
      const std::size_t len = std::min<std::size_t>(
          kBlockSize, chunk.payload.size() - std::min(chunk.payload.size(), off));
      if (off < chunk.payload.size())
        slice = std::span<const std::uint8_t>(chunk.payload.data() + off, len);
    }
    flash_.write_block(block, tag, slice);
    block = ring_next(block);
  }
  chunks_.push_back(Stored{chunk.meta, tail_block(), nblocks});
  used_blocks_ += nblocks;
  used_payload_ += chunk.meta.bytes;
  ++appends_;
  if (++mutations_since_checkpoint_ >= cfg_.checkpoint_every_appends)
    checkpoint();
  return true;
}

std::optional<ChunkMeta> ChunkStore::pop_head() {
  if (chunks_.empty()) return std::nullopt;
  const Stored sc = chunks_.front();
  chunks_.pop_front();
  std::uint32_t block = sc.first_block;
  for (std::uint32_t i = 0; i < sc.block_count; ++i) {
    flash_.clear_block(block);
    block = ring_next(block);
  }
  head_block_ = block;
  used_blocks_ -= sc.block_count;
  used_payload_ -= sc.meta.bytes;
  if (++mutations_since_checkpoint_ >= cfg_.checkpoint_every_appends)
    checkpoint();
  return sc.meta;
}

bool ChunkStore::pop_tail_if(std::uint64_t key) {
  if (chunks_.empty() || chunks_.back().meta.key != key) return false;
  const Stored sc = chunks_.back();
  chunks_.pop_back();
  std::uint32_t block = sc.first_block;
  for (std::uint32_t i = 0; i < sc.block_count; ++i) {
    flash_.clear_block(block);
    block = ring_next(block);
  }
  used_blocks_ -= sc.block_count;
  used_payload_ -= sc.meta.bytes;
  return true;
}

const ChunkMeta* ChunkStore::head_meta() const {
  return chunks_.empty() ? nullptr : &chunks_.front().meta;
}

std::uint64_t ChunkStore::used_bytes() const {
  return static_cast<std::uint64_t>(used_blocks_) * kBlockSize;
}

std::uint64_t ChunkStore::free_bytes() const {
  return capacity_bytes() - used_bytes();
}

std::vector<std::uint8_t> ChunkStore::read_payload(std::uint64_t key) const {
  for (const auto& sc : chunks_) {
    if (sc.meta.key == key) return read_blocks(sc);
  }
  return {};
}

std::vector<std::uint8_t> ChunkStore::read_blocks(const Stored& sc) const {
  std::vector<std::uint8_t> out;
  std::uint32_t block = sc.first_block;
  for (std::uint32_t i = 0; i < sc.block_count; ++i) {
    const auto span = flash_.payload(block);
    out.insert(out.end(), span.begin(), span.end());
    block = ring_next(block);
  }
  out.resize(std::min<std::size_t>(out.size(), sc.meta.bytes));
  return out;
}

void ChunkStore::checkpoint() {
  eeprom_.save(Checkpoint{head_block_, used_blocks_, chunk_counter_});
  mutations_since_checkpoint_ = 0;
}

ChunkStore ChunkStore::recover(Flash& flash, Eeprom& eeprom,
                               ChunkStoreConfig cfg) {
  ChunkStore store(flash, eeprom, cfg);
  store.reload_from_flash();
  return store;
}

void ChunkStore::reload_from_flash() {
  chunks_.clear();
  head_block_ = 0;
  used_blocks_ = 0;
  used_payload_ = 0;
  chunk_counter_ = 0;
  mutations_since_checkpoint_ = 0;

  // The flash contents are authoritative: pops clear OOB tags and appends
  // overwrite them, so a full ring scan reconstructs the queue even when the
  // EEPROM checkpoint is stale — or was never written at all (a node can
  // crash before its first checkpoint with received chunks already on
  // flash). The checkpoint contributes the counter floor and a fallback
  // scan origin.
  const auto& cp = eeprom_.load();
  const std::uint32_t total = flash_.block_count();
  if (total == 0) return;

  // Pops clear OOB tags and appends overwrite them, so the blocks holding
  // valid tags are exactly the live queue, laid out contiguously in ring
  // order. The checkpointed head may lag arbitrarily — pops advanced the
  // real head past it, and appends may even have wrapped fresh data over
  // it — so it only serves as a fallback scan origin. Any cleared block
  // sits in the free gap, and the first chunk start after the gap is the
  // true queue head; scanning the ring once from there reconstructs the
  // queue in age order.
  std::uint32_t origin = cp ? cp->head_block % total : 0;
  for (std::uint32_t i = 0; i < total; ++i) {
    if (!flash_.tag(i)) {
      origin = i;
      break;
    }
  }
  std::uint32_t block = origin;
  std::uint32_t scanned = 0;
  bool have_head = false;
  while (scanned < total) {
    const auto& first = flash_.tag(block);
    if (!first || first->frag_index != 0) {
      // Cleared, or mid-chain of a chunk wrapping past the origin (only
      // possible when the flash is full); its start turns up later in the
      // scan and the chain validation below wraps back through here.
      block = ring_next(block);
      ++scanned;
      continue;
    }
    const std::uint32_t n = first->frag_count;
    bool ok = n > 0 && n <= total;
    std::uint32_t b = block;
    for (std::uint32_t i = 0; ok && i < n; ++i) {
      const auto& t = flash_.tag(b);
      if (!t || t->meta.key != first->meta.key || t->frag_index != i)
        ok = false;
      b = ring_next(b);
    }
    if (!ok) {
      block = ring_next(block);
      ++scanned;
      continue;
    }
    chunks_.push_back(Stored{first->meta, block, n});
    if (!have_head) {
      head_block_ = block;
      have_head = true;
    }
    used_blocks_ += n;
    used_payload_ += first->meta.bytes;
    block = b;
    scanned += n;
  }
  if (!have_head) head_block_ = origin;

  // Counter floor: the checkpoint lags the live counter by at most
  // checkpoint_every_appends mints, and keys minted just before the crash
  // may already have migrated to other nodes — restart past the margin so
  // they cannot be reissued (which would alias two different chunks under
  // one key). Recovered keys raise the floor further; taking foreign keys'
  // counters into account only overshoots, which is harmless. With no
  // checkpoint at all, fewer than checkpoint_every_appends mutations ever
  // happened (the first checkpoint would have fired), so the margin alone
  // clears every key this node could have minted.
  std::uint32_t floor = cp ? cp->chunk_counter : 0;
  for (const auto& sc : chunks_) {
    floor = std::max(floor, static_cast<std::uint32_t>(sc.meta.key));
  }
  chunk_counter_ = floor + cfg_.checkpoint_every_appends + 1;
}

}  // namespace enviromic::storage
