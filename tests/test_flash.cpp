#include <gtest/gtest.h>

#include <vector>

#include "storage/flash.h"

namespace enviromic::storage {
namespace {

TEST(Flash, GeometryFromConfig) {
  FlashConfig cfg;
  cfg.capacity_bytes = 512 * 1024;
  Flash f(cfg);
  EXPECT_EQ(f.block_count(), 2048u);
  EXPECT_EQ(f.capacity_bytes(), 512u * 1024u);
}

TEST(Flash, WearStartsAtZero) {
  Flash f;
  EXPECT_EQ(f.max_wear(), 0u);
  EXPECT_EQ(f.min_wear(), 0u);
  EXPECT_EQ(f.total_writes(), 0u);
}

TEST(Flash, WriteBumpsWearAndStoresTag) {
  Flash f;
  BlockTag tag;
  tag.meta.key = 77;
  tag.frag_index = 0;
  tag.frag_count = 3;
  f.write_block(5, tag);
  EXPECT_EQ(f.wear(5), 1u);
  EXPECT_EQ(f.total_writes(), 1u);
  ASSERT_TRUE(f.tag(5).has_value());
  EXPECT_EQ(f.tag(5)->meta.key, 77u);
  EXPECT_FALSE(f.tag(4).has_value());
}

TEST(Flash, ClearRemovesTagButKeepsWear) {
  Flash f;
  f.write_block(3, BlockTag{});
  f.clear_block(3);
  EXPECT_FALSE(f.tag(3).has_value());
  EXPECT_EQ(f.wear(3), 1u);
}

TEST(Flash, RewriteReplacesTag) {
  Flash f;
  BlockTag a;
  a.meta.key = 1;
  BlockTag b;
  b.meta.key = 2;
  f.write_block(0, a);
  f.write_block(0, b);
  EXPECT_EQ(f.tag(0)->meta.key, 2u);
  EXPECT_EQ(f.wear(0), 2u);
}

TEST(Flash, PayloadsStoredOnlyWhenEnabled) {
  std::vector<std::uint8_t> data = {1, 2, 3};
  {
    Flash off;  // store_payloads default false
    off.write_block(0, BlockTag{}, data);
    EXPECT_TRUE(off.payload(0).empty());
  }
  {
    FlashConfig cfg;
    cfg.store_payloads = true;
    Flash on(cfg);
    on.write_block(0, BlockTag{}, data);
    ASSERT_EQ(on.payload(0).size(), 3u);
    EXPECT_EQ(on.payload(0)[2], 3);
    on.clear_block(0);
    EXPECT_TRUE(on.payload(0).empty());
  }
}

TEST(Flash, OverLimitWritesCounted) {
  FlashConfig cfg;
  cfg.capacity_bytes = 1024;
  cfg.write_limit = 2;
  Flash f(cfg);
  for (int i = 0; i < 5; ++i) f.write_block(0, BlockTag{});
  EXPECT_EQ(f.over_limit_writes(), 3u);
  EXPECT_EQ(f.wear(0), 5u);
}

TEST(Flash, MinMaxWearTrackExtremes) {
  FlashConfig cfg;
  cfg.capacity_bytes = 1024;
  Flash f(cfg);
  f.write_block(0, BlockTag{});
  f.write_block(0, BlockTag{});
  f.write_block(1, BlockTag{});
  EXPECT_EQ(f.max_wear(), 2u);
  EXPECT_EQ(f.min_wear(), 0u);
}

}  // namespace
}  // namespace enviromic::storage
