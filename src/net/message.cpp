#include "net/message.h"

#include <algorithm>
#include <cstdio>
#include <type_traits>

namespace enviromic::net {

std::string EventId::str() const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "E%u.%u", origin, seq);
  return buf;
}

namespace {

struct SizeVisitor {
  std::uint32_t operator()(const LeaderAnnounce&) const { return 14; }
  std::uint32_t operator()(const Resign&) const { return 18; }
  std::uint32_t operator()(const Sensing&) const { return 16; }
  std::uint32_t operator()(const TaskRequest&) const { return 20; }
  std::uint32_t operator()(const TaskConfirm&) const { return 12; }
  std::uint32_t operator()(const TaskReject&) const { return 12; }
  std::uint32_t operator()(const PreludeKeep&) const { return 10; }
  std::uint32_t operator()(const StateBeacon&) const { return 19; }
  std::uint32_t operator()(const TransferOffer&) const { return 10; }
  std::uint32_t operator()(const TransferGrant&) const { return 12; }
  std::uint32_t operator()(const TransferData& d) const {
    // 16 bytes of header + 4-byte fragment byte offset + 1 flag byte; the
    // offset rides on the wire so heterogeneously configured nodes reassemble
    // at the sender's layout. A coded fragment's descriptor adds the
    // erasure-coding identity (group key 8, index/k/n 3, original size 4);
    // plain chunks pay nothing, so non-coded runs keep their exact airtime.
    // A drain-routed chunk's descriptor adds the sink id (4) and query id
    // (4); balancing migrations pay nothing.
    return 21 + d.payload_bytes + (d.meta.ec_k != 0 ? 15 : 0) +
           (d.drain_sink != kInvalidNode ? 8 : 0);
  }
  // Cumulative index (4) + SACK bitmap (4) on top of the old 14-byte ack.
  std::uint32_t operator()(const TransferAck&) const { return 22; }
  std::uint32_t operator()(const TimeSyncBeacon&) const { return 16; }
  std::uint32_t operator()(const QueryRequest& q) const {
    // The pipelined bit packs into the existing flags byte; a source
    // selector adds its kind byte + node id. Time-window queries keep the
    // seed's exact 16-byte airtime.
    return 16 + (q.sel_kind != 0 ? 5 : 0);
  }
  std::uint32_t operator()(const QueryReply& r) const {
    return 26 + (r.meta.ec_k != 0 ? 15 : 0) +
           (r.collected_by != kInvalidNode ? 4 : 0);
  }
};

}  // namespace

std::uint32_t wire_size(const Message& m) { return std::visit(SizeVisitor{}, m); }

std::size_t type_index(const Message& m) { return m.index(); }

bool addressee_only(const Packet& p) {
  if (p.dst == kBroadcast || p.messages.empty()) return false;
  return std::all_of(p.messages.begin(), p.messages.end(),
                     [dst = p.dst](const Message& m) {
    return std::visit(
        [dst](const auto& msg) {
          using T = std::decay_t<decltype(msg)>;
          if constexpr (std::is_same_v<T, TransferOffer> ||
                        std::is_same_v<T, TransferGrant> ||
                        std::is_same_v<T, TransferData> ||
                        std::is_same_v<T, TransferAck>) {
            return msg.to == dst;
          } else {
            return false;
          }
        },
        m);
  });
}

std::uint32_t Packet::payload_bytes() const {
  std::uint32_t n = 0;
  for (const auto& m : messages) n += wire_size(m);
  return n;
}

std::uint32_t Packet::total_bytes() const {
  return payload_bytes() + kFramingBytes;
}

}  // namespace enviromic::net
