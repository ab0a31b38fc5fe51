#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "sim/rng.h"
#include "storage/chunk_store.h"

namespace enviromic::storage {
namespace {

struct StoreFixture {
  FlashConfig flash_cfg;
  Flash flash;
  Eeprom eeprom;
  ChunkStore store;

  explicit StoreFixture(std::uint64_t capacity = 8 * 1024,
                        bool payloads = false)
      : flash_cfg(make_cfg(capacity, payloads)),
        flash(flash_cfg),
        store(flash, eeprom) {}

  static FlashConfig make_cfg(std::uint64_t capacity, bool payloads) {
    FlashConfig cfg;
    cfg.capacity_bytes = capacity;
    cfg.store_payloads = payloads;
    return cfg;
  }

  Chunk make_chunk(std::uint32_t bytes, net::NodeId node = 1) {
    Chunk c;
    c.meta.key = store.next_key(node);
    c.meta.bytes = bytes;
    c.meta.recorded_by = node;
    return c;
  }
};

TEST(ChunkStore, BlocksForRoundsUp) {
  StoreFixture f;
  EXPECT_EQ(f.store.blocks_for(0), 1u);
  EXPECT_EQ(f.store.blocks_for(1), 1u);
  EXPECT_EQ(f.store.blocks_for(256), 1u);
  EXPECT_EQ(f.store.blocks_for(257), 2u);
  EXPECT_EQ(f.store.blocks_for(2730), 11u);
}

TEST(ChunkStore, AppendAndAccounting) {
  StoreFixture f;
  EXPECT_TRUE(f.store.append(f.make_chunk(600)));  // 3 blocks
  EXPECT_EQ(f.store.chunk_count(), 1u);
  EXPECT_EQ(f.store.used_bytes(), 3u * 256u);
  EXPECT_EQ(f.store.used_payload_bytes(), 600u);
  EXPECT_EQ(f.store.free_bytes(), 8 * 1024 - 3 * 256);
}

TEST(ChunkStore, ForEachUntilStopsAtFirstFalse) {
  StoreFixture f(/*capacity=*/64 * 1024);
  for (int i = 0; i < 20; ++i) f.store.append(f.make_chunk(100));
  // Early-exit iteration visits exactly the prefix a transfer offer needs,
  // not the whole queue.
  int visited = 0;
  std::uint64_t bytes = 0;
  f.store.for_each_until([&](const ChunkMeta& m) {
    if (visited >= 3) return false;
    ++visited;
    bytes += m.bytes;
    return true;
  });
  EXPECT_EQ(visited, 3);
  EXPECT_EQ(bytes, 300u);
  // A callback that never declines sees everything, oldest first.
  std::vector<std::uint64_t> keys;
  f.store.for_each_until([&](const ChunkMeta& m) {
    keys.push_back(m.key);
    return true;
  });
  EXPECT_EQ(keys.size(), 20u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(ChunkStore, RejectsWhenFull) {
  StoreFixture f(/*capacity=*/1024);  // 4 blocks
  EXPECT_TRUE(f.store.append(f.make_chunk(700)));  // 3 blocks
  EXPECT_FALSE(f.store.can_fit(600));
  EXPECT_FALSE(f.store.append(f.make_chunk(600)));
  EXPECT_EQ(f.store.rejected_appends(), 1u);
  EXPECT_TRUE(f.store.append(f.make_chunk(100)));  // 1 block fits
  EXPECT_TRUE(f.store.full());
}

TEST(ChunkStore, PopHeadIsFifo) {
  StoreFixture f;
  auto c1 = f.make_chunk(100);
  auto c2 = f.make_chunk(100);
  const auto k1 = c1.meta.key;
  const auto k2 = c2.meta.key;
  f.store.append(std::move(c1));
  f.store.append(std::move(c2));
  EXPECT_EQ(f.store.pop_head()->key, k1);
  EXPECT_EQ(f.store.pop_head()->key, k2);
  EXPECT_FALSE(f.store.pop_head().has_value());
}

TEST(ChunkStore, PopFreesSpaceForNewAppends) {
  StoreFixture f(/*capacity=*/1024);
  f.store.append(f.make_chunk(900));  // 4 blocks = full
  EXPECT_TRUE(f.store.full());
  f.store.pop_head();
  EXPECT_EQ(f.store.used_bytes(), 0u);
  EXPECT_TRUE(f.store.append(f.make_chunk(900)));
}

TEST(ChunkStore, HeadMetaPeeksWithoutRemoval) {
  StoreFixture f;
  auto c = f.make_chunk(100);
  const auto key = c.meta.key;
  f.store.append(std::move(c));
  ASSERT_NE(f.store.head_meta(), nullptr);
  EXPECT_EQ(f.store.head_meta()->key, key);
  EXPECT_EQ(f.store.chunk_count(), 1u);
  StoreFixture empty;
  EXPECT_EQ(empty.store.head_meta(), nullptr);
}

TEST(ChunkStore, PopTailIfMatchesOnlyNewest) {
  StoreFixture f;
  auto c1 = f.make_chunk(100);
  auto c2 = f.make_chunk(100);
  const auto k1 = c1.meta.key;
  const auto k2 = c2.meta.key;
  f.store.append(std::move(c1));
  f.store.append(std::move(c2));
  EXPECT_FALSE(f.store.pop_tail_if(k1));  // not the tail
  EXPECT_TRUE(f.store.pop_tail_if(k2));
  EXPECT_EQ(f.store.chunk_count(), 1u);
  EXPECT_FALSE(f.store.pop_tail_if(k2));  // already gone
}

TEST(ChunkStore, NextKeyEncodesNodeAndCounter) {
  StoreFixture f;
  const auto k0 = f.store.next_key(7);
  const auto k1 = f.store.next_key(7);
  EXPECT_EQ(chunk_key_node(k0), 7u);
  EXPECT_EQ(chunk_key_node(k1), 7u);
  EXPECT_NE(k0, k1);
}

TEST(ChunkStore, PayloadRoundTrip) {
  StoreFixture f(8 * 1024, /*payloads=*/true);
  Chunk c = f.make_chunk(600);
  c.payload.resize(600);
  for (std::size_t i = 0; i < c.payload.size(); ++i)
    c.payload[i] = static_cast<std::uint8_t>(i & 0xFF);
  const auto key = c.meta.key;
  f.store.append(std::move(c));
  const auto back = f.store.read_payload(key);
  ASSERT_EQ(back.size(), 600u);
  for (std::size_t i = 0; i < back.size(); ++i)
    EXPECT_EQ(back[i], static_cast<std::uint8_t>(i & 0xFF));
}

TEST(ChunkStore, CopyIfReturnsMatchesOldestFirstWithPayloads) {
  StoreFixture f(8 * 1024, /*payloads=*/true);
  std::vector<Chunk> written;
  for (net::NodeId node : {1, 2, 1, 2, 2}) {
    Chunk c = f.make_chunk(300 + 100 * node, node);
    c.payload.assign(c.meta.bytes, static_cast<std::uint8_t>(written.size()));
    written.push_back(c);
    ASSERT_TRUE(f.store.append(std::move(c)));
  }
  int asked = 0;
  const auto got = f.store.copy_if([&](const ChunkMeta& m) {
    ++asked;
    return m.recorded_by == 2;
  });
  EXPECT_EQ(asked, 5);
  const std::size_t matches[] = {1, 3, 4};
  ASSERT_EQ(got.size(), 3u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].meta, written[matches[i]].meta);
    EXPECT_EQ(got[i].payload, written[matches[i]].payload);
  }
}

TEST(ChunkStore, ReadPayloadUnknownKeyEmpty) {
  StoreFixture f(8 * 1024, true);
  EXPECT_TRUE(f.store.read_payload(12345).empty());
}

TEST(ChunkStore, ForEachVisitsOldestFirst) {
  StoreFixture f;
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 5; ++i) {
    auto c = f.make_chunk(100);
    keys.push_back(c.meta.key);
    f.store.append(std::move(c));
  }
  std::vector<std::uint64_t> seen;
  f.store.for_each([&](const ChunkMeta& m) { seen.push_back(m.key); });
  EXPECT_EQ(seen, keys);
}

TEST(ChunkStore, WearLevelingDifferByAtMostOne) {
  // The paper's property: strictly circular consumption keeps per-block
  // write counts within 1 of each other, under any append/pop pattern.
  StoreFixture f(/*capacity=*/4 * 1024);  // 16 blocks
  sim::Rng rng(77);
  for (int op = 0; op < 3000; ++op) {
    if (rng.chance(0.6)) {
      const auto bytes = static_cast<std::uint32_t>(rng.uniform_int(1, 700));
      if (f.store.can_fit(bytes)) {
        f.store.append(f.make_chunk(bytes));
      } else {
        f.store.pop_head();
      }
    } else {
      f.store.pop_head();
    }
  }
  EXPECT_LE(f.flash.max_wear() - f.flash.min_wear(), 1u);
  EXPECT_GT(f.flash.max_wear(), 10u);  // the ring actually cycled
}

TEST(ChunkStore, CheckpointCadence) {
  StoreFixture f;
  const auto writes_before = f.eeprom.writes();
  for (int i = 0; i < 8; ++i) f.store.append(f.make_chunk(10));
  EXPECT_EQ(f.eeprom.writes(), writes_before + 1);  // every 8 mutations
  f.store.checkpoint();
  EXPECT_EQ(f.eeprom.writes(), writes_before + 2);
}

TEST(ChunkStore, ZeroByteChunkOccupiesOneBlock) {
  StoreFixture f;
  EXPECT_TRUE(f.store.append(f.make_chunk(0)));
  EXPECT_EQ(f.store.used_bytes(), 256u);
  auto back = f.store.pop_head();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->bytes, 0u);
}

// Model-based property test: the store behaves like a bounded FIFO queue.
class StoreModelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StoreModelProperty, MatchesReferenceFifo) {
  StoreFixture f(/*capacity=*/4 * 1024);
  sim::Rng rng(GetParam());
  std::deque<std::pair<std::uint64_t, std::uint32_t>> model;  // key, bytes
  std::uint32_t model_blocks = 0;
  const std::uint32_t total_blocks = 16;
  for (int op = 0; op < 2000; ++op) {
    if (rng.chance(0.65)) {
      auto c = f.make_chunk(static_cast<std::uint32_t>(rng.uniform_int(0, 900)));
      const auto key = c.meta.key;
      const auto bytes = c.meta.bytes;
      const auto nblocks = f.store.blocks_for(bytes);
      const bool should_fit = model_blocks + nblocks <= total_blocks;
      EXPECT_EQ(f.store.append(std::move(c)), should_fit);
      if (should_fit) {
        model.emplace_back(key, bytes);
        model_blocks += nblocks;
      }
    } else {
      auto popped = f.store.pop_head();
      if (model.empty()) {
        EXPECT_FALSE(popped.has_value());
      } else {
        ASSERT_TRUE(popped.has_value());
        EXPECT_EQ(popped->key, model.front().first);
        EXPECT_EQ(popped->bytes, model.front().second);
        model_blocks -= f.store.blocks_for(model.front().second);
        model.pop_front();
      }
    }
    EXPECT_EQ(f.store.chunk_count(), model.size());
    EXPECT_EQ(f.store.used_bytes(),
              static_cast<std::uint64_t>(model_blocks) * 256u);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomOps, StoreModelProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace enviromic::storage
