// An EnviroMic node: microphone + detector + flash store + radio + the
// protocol components, wired together. This mirrors the 12-module nesC
// implementation the paper describes (§III-A, Fig 2): group management,
// task management, storage balancing, bulk transfer, time-stamping, the
// neighbourhood broadcast module, and the recording service with its
// specialized file system.
#pragma once

#include <memory>
#include <vector>

#include "acoustic/detector.h"
#include "acoustic/microphone.h"
#include "core/balancer.h"
#include "core/bulk_transfer.h"
#include "core/coded_dispersal.h"
#include "core/config.h"
#include "core/group.h"
#include "core/neighborhood.h"
#include "core/recorder.h"
#include "core/retrieval.h"
#include "core/tasking.h"
#include "core/timesync.h"
#include "energy/energy_model.h"
#include "net/channel.h"
#include "net/radio.h"
#include "sim/coalesced_timer.h"
#include "sim/event_queue.h"
#include "sim/geometry.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "storage/chunk_store.h"
#include "storage/eeprom.h"
#include "storage/flash.h"

namespace enviromic::core {

class Metrics;

/// TinyOS-stack processing delay before a control send, U(min, max):
/// the dominant part of the measured task-assignment latency. A full
/// request->confirm handshake lands at ~35-85 ms, which is why the
/// paper's D_ta plateaus at 70 ms (Fig 6).
inline constexpr sim::Time kControlProcMin = sim::Time::millis(15);
inline constexpr sim::Time kControlProcMax = sim::Time::millis(40);
static_assert(kControlProcMin <= kControlProcMax);

/// Everything configurable about a node, with paper defaults.
struct NodeParams {
  ProtocolConfig protocol;
  storage::FlashConfig flash;
  storage::ChunkStoreConfig store;
  acoustic::DetectorConfig detector;
  energy::EnergyConfig energy;
  NeighborhoodBroadcast::Config nb;
};

class Node {
 public:
  Node(net::NodeId id, sim::Position pos, const NodeParams& params,
       sim::Scheduler& sched, net::Channel& channel,
       const acoustic::SoundField& field, sim::Rng rng, bool is_sync_root,
       Metrics& metrics);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Begin operation: detector polling, time sync, balancer ticks.
  void start();

  // Identity / environment.
  net::NodeId id() const { return id_; }
  const sim::Position& position() const { return pos_; }
  const ProtocolConfig& cfg() const { return params_.protocol; }
  const NodeParams& params() const { return params_; }

  // Substrates.
  sim::Scheduler& sched() { return sched_; }
  /// The node's protocol deadline multiplexer: every periodic protocol duty
  /// (beacon tick, sensing heartbeat, leader watchdog) is a slot here, so an
  /// idle node keeps zero standing events in the scheduler heap.
  sim::CoalescedTimer& proto_timer() { return proto_timer_; }
  sim::Rng& rng() { return rng_; }
  net::Radio& radio() { return *radio_; }
  const net::Radio& radio() const { return *radio_; }
  storage::Flash& flash() { return flash_; }
  storage::Eeprom& eeprom() { return eeprom_; }
  storage::ChunkStore& store() { return store_; }
  const storage::ChunkStore& store() const { return store_; }
  acoustic::Microphone& mic() { return mic_; }
  acoustic::Detector& detector() { return detector_; }
  energy::EnergyModel& energy() { return energy_; }
  LocalClock& clock() { return clock_; }

  // Protocol components.
  NeighborhoodBroadcast& nb() { return nb_; }
  TimeSync& timesync() { return timesync_; }
  GroupManager& group() { return group_; }
  TaskManager& tasking() { return tasking_; }
  RecorderComponent& recorder() { return recorder_; }
  Balancer& balancer() { return balancer_; }
  BulkTransfer& bulk() { return bulk_; }
  CodedDispersal& coded() { return coded_; }
  RetrievalService& retrieval() { return retrieval_; }
  Metrics& metrics() { return metrics_; }

  // Cross-component helpers.
  /// TinyOS-stack processing delay before a control send (§IV-A's measured
  /// task-assignment latency is dominated by this).
  sim::Time proc_delay();
  /// Enter/leave recording: the radio is turned off completely during a
  /// recording task (paper §III-B.1) and sampling power is charged.
  void set_recording(bool recording);
  bool is_recording() const { return recording_; }

  /// Failure injection ("defunct or lost motes can cause data loss", paper
  /// §VI): the node goes permanently dark — radio off, detection disabled.
  /// A *defunct* mote's flash survives for post-mortem recovery; a *lost*
  /// mote (lose_data = true) takes its data with it.
  void fail(bool lose_data = false);
  bool failed() const { return failed_; }
  bool data_lost() const { return data_lost_; }

  /// Transient crash: RAM (all soft protocol state, in-flight sessions, the
  /// recording buffer) dies; flash and the EEPROM checkpoint survive. The
  /// node stays dark until `reboot()`. Returns false if already down or
  /// permanently failed.
  bool crash();
  /// Come back from a crash: rebuild the chunk store from flash + EEPROM
  /// (the paper's §III-B.3 recovery path), restart detection, sync, and
  /// balancing, and rejoin the protocol with fresh soft state. Returns
  /// false unless the node is transiently down.
  bool reboot();
  /// True between crash() and reboot().
  bool down() const { return down_; }

  /// Radio brownout: the radio drops out for `duration`, protocol state
  /// stays intact (messages are simply missed — soft state must cope).
  void brownout(sim::Time duration);
  /// The crystal jumps by `seconds`; time sync must re-converge.
  void clock_step(double seconds);

  /// Duty cycling: true while the node sleeps (radio + detector dark).
  bool asleep() const { return asleep_; }

 private:
  void dispatch(const net::Packet& p);
  void on_message(const net::Message& m, net::NodeId src, net::NodeId dst);
  void duty_tick(bool go_to_sleep);

  net::NodeId id_;
  sim::Position pos_;
  NodeParams params_;
  sim::Scheduler& sched_;
  sim::Rng rng_;
  Metrics& metrics_;

  std::unique_ptr<net::Radio> radio_;
  storage::Flash flash_;
  storage::Eeprom eeprom_;
  storage::ChunkStore store_;
  acoustic::Microphone mic_;
  acoustic::Detector detector_;
  energy::EnergyModel energy_;
  LocalClock clock_;
  /// Must precede the protocol components: they register slots in their
  /// constructors.
  sim::CoalescedTimer proto_timer_;
  NeighborhoodBroadcast nb_;
  TimeSync timesync_;
  GroupManager group_;
  TaskManager tasking_;
  RecorderComponent recorder_;
  Balancer balancer_;
  BulkTransfer bulk_;
  CodedDispersal coded_;
  RetrievalService retrieval_;
  sim::EventHandle duty_timer_;
  bool recording_ = false;
  bool started_ = false;
  bool failed_ = false;
  bool data_lost_ = false;
  bool asleep_ = false;
  bool down_ = false;
  sim::Time crash_time_;
  /// Chunk keys held at crash time, checked against the recovered store.
  std::vector<std::uint64_t> precrash_keys_;
};

}  // namespace enviromic::core
