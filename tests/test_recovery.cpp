// Crash recovery of a node's store from its flash OOB tags + the EEPROM
// head/tail checkpoint (paper §III-B.3: "even if a node fails we can still
// correctly retrieve its locally stored data").
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/rng.h"
#include "storage/chunk_store.h"

namespace enviromic::storage {
namespace {

FlashConfig small_flash() {
  FlashConfig cfg;
  cfg.capacity_bytes = 4 * 1024;  // 16 blocks
  return cfg;
}

Chunk chunk_of(ChunkStore& store, std::uint32_t bytes, net::NodeId node = 1) {
  Chunk c;
  c.meta.key = store.next_key(node);
  c.meta.bytes = bytes;
  c.meta.recorded_by = node;
  c.meta.start = sim::Time::seconds_i(1);
  c.meta.end = sim::Time::seconds_i(2);
  c.meta.event = net::EventId{node, 9};
  return c;
}

std::vector<std::uint64_t> keys_of(const ChunkStore& s) {
  std::vector<std::uint64_t> keys;
  s.for_each([&](const ChunkMeta& m) { keys.push_back(m.key); });
  return keys;
}

TEST(Recovery, EmptyFlashRecoversEmpty) {
  Flash flash(small_flash());
  Eeprom eeprom;
  auto store = ChunkStore::recover(flash, eeprom);
  EXPECT_EQ(store.chunk_count(), 0u);
}

TEST(Recovery, FreshCheckpointRestoresEverything) {
  Flash flash(small_flash());
  Eeprom eeprom;
  ChunkStore store(flash, eeprom);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 4; ++i) {
    auto c = chunk_of(store, 300);
    keys.push_back(c.meta.key);
    store.append(std::move(c));
  }
  store.checkpoint();

  auto recovered = ChunkStore::recover(flash, eeprom);
  EXPECT_EQ(recovered.chunk_count(), 4u);
  EXPECT_EQ(keys_of(recovered), keys);
  EXPECT_EQ(recovered.used_bytes(), store.used_bytes());
}

TEST(Recovery, MetadataSurvives) {
  Flash flash(small_flash());
  Eeprom eeprom;
  ChunkStore store(flash, eeprom);
  auto c = chunk_of(store, 100, 3);
  c.meta.is_prelude = true;
  store.append(std::move(c));
  store.checkpoint();

  auto recovered = ChunkStore::recover(flash, eeprom);
  ASSERT_EQ(recovered.chunk_count(), 1u);
  const auto* meta = recovered.head_meta();
  EXPECT_EQ(meta->recorded_by, 3u);
  EXPECT_EQ(meta->event, (net::EventId{3, 9}));
  EXPECT_EQ(meta->start, sim::Time::seconds_i(1));
  EXPECT_TRUE(meta->is_prelude);
}

TEST(Recovery, AppendsAfterCheckpointAreRecovered) {
  Flash flash(small_flash());
  Eeprom eeprom;
  ChunkStore store(flash, eeprom);
  store.append(chunk_of(store, 300));
  store.checkpoint();
  store.append(chunk_of(store, 300));  // after the checkpoint
  auto recovered = ChunkStore::recover(flash, eeprom);
  EXPECT_EQ(recovered.chunk_count(), 2u);
}

TEST(Recovery, PopsAfterCheckpointAreSkipped) {
  Flash flash(small_flash());
  Eeprom eeprom;
  ChunkStore store(flash, eeprom);
  store.append(chunk_of(store, 300));
  auto keeper = chunk_of(store, 300);
  const auto keep_key = keeper.meta.key;
  store.append(std::move(keeper));
  store.checkpoint();
  store.pop_head();  // after the checkpoint
  auto recovered = ChunkStore::recover(flash, eeprom);
  ASSERT_EQ(recovered.chunk_count(), 1u);
  EXPECT_EQ(recovered.head_meta()->key, keep_key);
}

TEST(Recovery, RecoveredStoreIsUsable) {
  Flash flash(small_flash());
  Eeprom eeprom;
  ChunkStore store(flash, eeprom);
  store.append(chunk_of(store, 300));
  store.checkpoint();
  auto recovered = ChunkStore::recover(flash, eeprom);
  // Can keep appending and popping.
  EXPECT_TRUE(recovered.append(chunk_of(recovered, 500)));
  EXPECT_EQ(recovered.chunk_count(), 2u);
  EXPECT_TRUE(recovered.pop_head().has_value());
}

TEST(Recovery, ChunkCounterContinuesWithoutKeyReuse) {
  Flash flash(small_flash());
  Eeprom eeprom;
  ChunkStore store(flash, eeprom);
  auto c = chunk_of(store, 100);
  const auto old_key = c.meta.key;
  store.append(std::move(c));
  store.checkpoint();
  auto recovered = ChunkStore::recover(flash, eeprom);
  EXPECT_NE(recovered.next_key(1), old_key);
}

TEST(Recovery, WrapAroundRingRecovers) {
  Flash flash(small_flash());
  Eeprom eeprom;
  ChunkStore store(flash, eeprom);
  // Fill, drain, refill so the live region wraps the ring boundary.
  for (int i = 0; i < 3; ++i) store.append(chunk_of(store, 900));  // 12 blocks
  store.pop_head();
  store.pop_head();  // head now at block 8
  std::vector<std::uint64_t> expect = keys_of(store);
  for (int i = 0; i < 2; ++i) {
    auto c = chunk_of(store, 900);
    expect.push_back(c.meta.key);
    store.append(std::move(c));  // wraps past block 15
  }
  store.checkpoint();
  auto recovered = ChunkStore::recover(flash, eeprom);
  EXPECT_EQ(keys_of(recovered), expect);
}

// Property: after any op sequence followed by a checkpoint, recovery is
// exact; without a final checkpoint, recovery retrieves at least the chunks
// present at the last checkpoint that still exist, and never invents data.
class RecoveryProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RecoveryProperty, CheckpointedRecoveryIsExact) {
  Flash flash(small_flash());
  Eeprom eeprom;
  ChunkStore store(flash, eeprom);
  sim::Rng rng(GetParam());
  for (int op = 0; op < 500; ++op) {
    if (rng.chance(0.6)) {
      auto c = chunk_of(store, static_cast<std::uint32_t>(rng.uniform_int(1, 900)));
      store.append(std::move(c));
    } else {
      store.pop_head();
    }
  }
  store.checkpoint();
  auto recovered = ChunkStore::recover(flash, eeprom);
  EXPECT_EQ(keys_of(recovered), keys_of(store));
  EXPECT_EQ(recovered.used_bytes(), store.used_bytes());
}

TEST_P(RecoveryProperty, StaleCheckpointNeverInventsChunks) {
  Flash flash(small_flash());
  Eeprom eeprom;
  ChunkStore store(flash, eeprom);
  sim::Rng rng(GetParam() ^ 0xBEEF);
  for (int op = 0; op < 300; ++op) {
    if (rng.chance(0.6)) {
      store.append(chunk_of(store, static_cast<std::uint32_t>(rng.uniform_int(1, 600))));
    } else {
      store.pop_head();
    }
    // No explicit checkpoint here; the store checkpoints on its own cadence.
  }
  const auto live = keys_of(store);
  auto recovered = ChunkStore::recover(flash, eeprom);
  // Every recovered chunk must be (or have been) a real chunk currently in
  // flash — i.e. recovered keys are a subset of the live set.
  for (const auto key : keys_of(recovered)) {
    EXPECT_NE(std::find(live.begin(), live.end(), key), live.end());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomHistories, RecoveryProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace enviromic::storage
