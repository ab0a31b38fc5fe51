#include <gtest/gtest.h>

#include "net/message.h"

namespace enviromic::net {
namespace {

TEST(EventId, ValidityAndOrdering) {
  EventId invalid;
  EXPECT_FALSE(invalid.valid());
  EventId a{1, 0}, b{1, 1}, c{2, 0};
  EXPECT_TRUE(a.valid());
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (EventId{1, 0}));
  EXPECT_EQ(a.str(), "E1.0");
}

TEST(Message, EveryTypeHasPositiveWireSize) {
  const Message msgs[] = {
      LeaderAnnounce{}, Resign{},        Sensing{},      TaskRequest{},
      TaskConfirm{},    TaskReject{},    PreludeKeep{},  StateBeacon{},
      TransferOffer{},  TransferGrant{}, TransferData{}, TransferAck{},
      TimeSyncBeacon{}, QueryRequest{},  QueryReply{}};
  for (const auto& m : msgs) {
    EXPECT_GT(wire_size(m), 0u) << "message type " << type_index(m);
  }
}

TEST(Message, TransferDataSizeIncludesPayload) {
  TransferData d;
  d.payload_bytes = 0;
  const auto base = wire_size(Message{d});
  d.payload_bytes = 64;
  EXPECT_EQ(wire_size(Message{d}), base + 64);
}

TEST(Message, TypeIndexMatchesVariantIndex) {
  EXPECT_EQ(type_index(Message{LeaderAnnounce{}}), 0u);
  EXPECT_EQ(type_index(Message{QueryReply{}}), kMessageTypeCount - 1);
}

TEST(Packet, PayloadSumsMessages) {
  Packet p;
  p.src = 1;
  p.messages.push_back(Sensing{});
  p.messages.push_back(StateBeacon{});
  const auto expected =
      wire_size(Message{Sensing{}}) + wire_size(Message{StateBeacon{}});
  EXPECT_EQ(p.payload_bytes(), expected);
  EXPECT_EQ(p.total_bytes(), expected + Packet::kFramingBytes);
}

TEST(Packet, EmptyPacketStillHasFraming) {
  Packet p;
  EXPECT_EQ(p.payload_bytes(), 0u);
  EXPECT_EQ(p.total_bytes(), Packet::kFramingBytes);
}

TEST(Message, TransferFamilyIsContiguousInVariant) {
  // Metrics relies on TRANSFER_OFFER..TRANSFER_ACK being contiguous.
  const auto first = type_index(Message{TransferOffer{}});
  EXPECT_EQ(type_index(Message{TransferGrant{}}), first + 1);
  EXPECT_EQ(type_index(Message{TransferData{}}), first + 2);
  EXPECT_EQ(type_index(Message{TransferAck{}}), first + 3);
}

}  // namespace
}  // namespace enviromic::net
