#pragma once
// Structured event/span recorder for the simulator.
//
// A Trace is one run's ring of fixed-size binary records. The run loop
// attaches it to the world's Scheduler; record sites pass the scheduler's
// ring pointer to the helpers below, which test it before touching any
// other argument, so a dark run (no ring attached) pays one untaken branch
// per site. Recording never schedules events and never draws from any RNG,
// so a traced run is bit-identical to an untraced one on the same seed.
//
// Each record carries the sim-time tick, an event kind, a phase (instant /
// span begin / span end), a node id, and four payload slots (two u64, two
// double) whose meaning is per-kind (see trace_event_name and DESIGN.md
// §10). Records hold simulated history only, no host clock, so two runs of
// one seed record and export identical rings; host time per component is
// the profiler's.

#include <cstdint>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.h"

namespace enviromic::sim {

class Telemetry;

enum class TracePhase : std::uint8_t {
  kInstant = 0,
  kBegin = 1,
  kEnd = 2,
};

// Event kinds. Span kinds (used with kBegin/kEnd) double as track names in
// the Chrome-trace export; instant kinds render as ph:"i" markers on a
// per-node "events" track.
enum class TraceEvent : std::uint8_t {
  // --- spans ---
  kLeadership = 0,   // group leadership tenure; a = event seq
  kTaskRecord = 1,   // recorder busy on an assigned task; a = event seq, b = recorder
  kPrelude = 2,      // prelude recording window; a = event seq
  kBulkSession = 3,  // bulk-transfer send session; a = peer, b = bytes moved (end)
  kCodedDisperse = 4,  // coded dispersal of one chunk; a = original key,
                       // b = fragments placed (end), x = 1 if the original
                       // was kept (end)
  kDrainSession = 5,   // retrieval drain serve session; a = sink,
                       // b = query id (begin) / chunks uploaded (end)
  // --- instants ---
  kLeader = 16,        // became leader; a = event seq, b = 1 if handoff
  kResign = 17,        // resigned leadership; a = event seq, b = successor
  kWatchdog = 18,      // leader-silence watchdog re-election; a = event seq
  kTaskRequest = 19,   // TASK_REQUEST sent; a = recorder, b = round
  kTaskConfirm = 20,   // TASK_CONFIRM handled; a = leader, b = round
  kTaskReject = 21,    // TASK_REJECT handled; a = recorder, b = round
  kConfirmTimeout = 22,  // confirm window expired; a = recorder, b = strikes
  kPreludeCommit = 23,   // prelude kept (promoted to stored chunk); a = event seq, b = bytes
  kPreludeErased = 24,   // prelude dropped on PRELUDE_KEEP miss; a = event seq
  kBalance = 25,   // balancer sheds to a = target, b = beta*1e6, x = TTL_storage s, y = TTL_energy s
  kWindowStall = 26,   // bulk window full; a = peer, b = in-flight frags
  kFragRetx = 27,      // fragment retransmitted; a = peer, b = frag index
  kTransferSack = 28,  // SACK with holes sent; a = peer, b = sack bits
  kChannelSend = 29,     // transmission started; a = dst (0 = broadcast), b = bytes
  kChannelDeliver = 30,  // packet delivered; a = src, b = bytes
  kChannelDrop = 31,     // packet dropped; a = src, b = reason (TraceDropReason)
  kCrash = 32,      // node crashed; b = 1 if flash lost
  kReboot = 33,     // node rebooted; x = downtime s
  kFail = 34,       // node permanently failed; b = 1 if data lost
  kBrownout = 35,   // brownout begun; x = duration s
  kClockStep = 36,  // local clock stepped; x = offset s
  kCodedEncode = 38,  // chunk encoded into fragments; a = original key,
                      // b = pack(k, n), x = original bytes
  kCodedDecode = 39,  // decode-on-drain summary; a = groups reconstructed,
                      // b = groups partial, x = fragments consumed,
                      // y = 0 if a redundant cross-check mismatched
  kDrainChunk = 40,   // drain chunk landed at its sink; a = sender,
                      // b = chunk key
  kDrainAck = 41,     // overlap descriptor-ack sent; a = sink asked,
                      // b = chunk key (already held by another sink)
  kTransferRxExpired = 42,  // partial inbound chunk dropped after the rx
                            // timeout; a = sender, b = chunk key

};

enum class TraceDropReason : std::uint8_t {
  kRadioOff = 0,
  kCollision = 1,
  kBurst = 2,
  kRandom = 3,
};

struct TraceRecord {
  std::int64_t t_ticks;  // sim time
  TraceEvent event;
  TracePhase phase;
  std::uint16_t pad;
  std::uint32_t node;
  std::uint64_t a;
  std::uint64_t b;
  double x;
  double y;
};
static_assert(sizeof(TraceRecord) == 48, "TraceRecord layout drifted");

const char* trace_event_name(TraceEvent e);

class Trace {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 20;  // records

  // An empty ring that can hold nothing: what a dark run returns. Only a
  // ring built with a capacity may be attached to a scheduler.
  Trace() = default;
  // A ring of at most `capacity` records (at least one). The buffer grows
  // on demand up to the cap, then wraps (oldest records overwritten).
  explicit Trace(std::size_t capacity);

  void record(Time t, TraceEvent e, TracePhase ph, std::uint32_t node,
              std::uint64_t a = 0, std::uint64_t b = 0, double x = 0.0,
              double y = 0.0);

  std::size_t size() const;      // records currently held
  bool wrapped() const { return wrapped_; }
  std::uint64_t total_recorded() const { return total_; }
  std::size_t capacity() const { return cap_; }

  // Visits records oldest-first.
  void for_each(const std::function<void(const TraceRecord&)>& fn) const;

  // Writes the most recent `n` records (fewer if the ring holds fewer) as
  // one text line each. Used by the chaos flight recorder post-mortem dump.
  void dump_tail(std::size_t n, std::ostream& out) const;

  // Exporters. Both return false (and write nothing further) on I/O error.
  // The Chrome-trace export also draws the run's telemetry `counters` as
  // Perfetto counter tracks (DESIGN.md §10).
  bool export_chrome_trace(const std::string& path,
                           const Telemetry& counters) const;
  bool export_jsonl(const std::string& path) const;
  void export_chrome_trace(std::ostream& out, const Telemetry& counters) const;
  void export_jsonl(std::ostream& out) const;

 private:
  std::vector<TraceRecord> ring_;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;  // next write position once ring_ is full
  bool wrapped_ = false;
  std::uint64_t total_ = 0;
};

// Packs an (origin, seq) style pair into one payload slot; used to carry
// protocol EventIds through the u64 record fields.
inline std::uint64_t trace_pack(std::uint32_t hi, std::uint32_t lo) {
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

// Inline instrumentation helpers: one branch when no ring is attached.
// `trace` is the scheduler's ring (Scheduler::trace()), null when dark.
inline void trace_instant(Trace* trace, Time t, TraceEvent e,
                          std::uint32_t node, std::uint64_t a = 0,
                          std::uint64_t b = 0, double x = 0.0,
                          double y = 0.0) {
  if (trace) trace->record(t, e, TracePhase::kInstant, node, a, b, x, y);
}

inline void trace_begin(Trace* trace, Time t, TraceEvent e,
                        std::uint32_t node, std::uint64_t a = 0,
                        std::uint64_t b = 0) {
  if (trace) trace->record(t, e, TracePhase::kBegin, node, a, b);
}

inline void trace_end(Trace* trace, Time t, TraceEvent e, std::uint32_t node,
                      std::uint64_t a = 0, std::uint64_t b = 0,
                      double x = 0.0) {
  if (trace) trace->record(t, e, TracePhase::kEnd, node, a, b, x);
}

}  // namespace enviromic::sim
