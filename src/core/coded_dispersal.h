// Erasure-coded chunk dispersal (k-of-n survival under permanent death).
//
// Whole-chunk migration concentrates each payload on one node, so the fault
// plans' permanent deaths destroy data outright. With the coded policy the
// balancer hands its eligible-neighbour list here instead: the head chunk is
// encoded into n fragments (systematic Reed-Solomon, seeded by the chunk
// key) and the fragments are pushed one per distinct neighbour over the
// windowed bulk-transfer pipeline. Each fragment is a first-class chunk with
// its own key, so flash recovery, onward migration, harvest, and the
// exactly-once retrieval invariant all apply unchanged. The original is
// popped only once at least k fragments are acked at peers; a dispersal that
// falls short keeps the original (the surplus fragments are the coded
// analogue of the migrate path's incidental replication). A fragment push
// that aborts (peer died mid-dispersal) retries on the next candidate,
// bounded by kCodedMaxFailures.
//
// No RNG stream is consumed and no timer is armed: the component advances
// purely on bulk-session completion callbacks, so seeded runs with the
// policy off are untouched down to the event schedule.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/message.h"
#include "storage/chunk.h"

namespace enviromic::core {

class Node;

struct CodedStats {
  std::uint32_t chunks_coded = 0;       //!< dispersals started
  std::uint32_t fragments_placed = 0;   //!< fragment pushes acked by a peer
  std::uint32_t fragments_failed = 0;   //!< fragment pushes aborted
  std::uint32_t placement_wraps = 0;    //!< fragment co-located with another
  std::uint32_t originals_released = 0; //!< >= k placed, original popped
  std::uint32_t originals_kept = 0;     //!< < k placed, original retained
  std::uint64_t original_bytes = 0;     //!< bytes of chunks encoded
  std::uint64_t fragment_bytes = 0;     //!< bytes of fragments placed
};

class CodedDispersal {
 public:
  explicit CodedDispersal(Node& node);

  /// True while a dispersal session is in progress (between fragment pushes
  /// included); the balancer defers whole-chunk sessions meanwhile.
  bool active() const { return session_.has_value(); }

  /// Encode the store-head chunk and begin dispersing fragments to
  /// `targets` (the balancer's eligible neighbours, best first). Returns
  /// false — and the balancer falls back to whole-chunk migration — when the
  /// policy is off, a session or bulk transfer is already running, there is
  /// no head chunk, or the head is itself a fragment (never re-encode).
  bool start(std::vector<net::NodeId> targets);

  /// Drop the in-RAM session (crash/reboot/fail). Fragments not yet placed
  /// die with it; the original chunk is still on flash.
  void reset();

  const CodedStats& stats() const { return stats_; }

 private:
  struct Session {
    std::uint64_t orig_key = 0;
    std::uint32_t orig_bytes = 0;
    unsigned k = 0;
    std::vector<storage::Chunk> fragments;
    std::vector<net::NodeId> targets;
    std::size_t next_fragment = 0;  //!< first fragment not yet placed
    std::size_t target_cursor = 0;  //!< round-robin position over targets
    unsigned placed = 0;
    int failures = 0;
  };

  void send_next();
  void on_push_done(bool ok);
  void finish();
  bool original_still_stored() const;

  Node& node_;
  std::optional<Session> session_;
  CodedStats stats_;
};

}  // namespace enviromic::core
