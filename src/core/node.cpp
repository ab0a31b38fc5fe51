#include "core/node.h"

#include <algorithm>
#include <set>

#include "core/metrics.h"
#include "sim/profiler.h"
#include "sim/trace.h"

namespace enviromic::core {

namespace {
/// Crystal error bounds: offset U(-max, max) s, drift U(-max, max) ppm.
constexpr double kClockOffsetMaxS = 0.05;
constexpr double kClockDriftMaxPpm = 30.0;

sim::Rng fork_for(const sim::Rng& rng, std::string_view tag) {
  return rng.fork(tag);
}
}  // namespace

Node::Node(net::NodeId id, sim::Position pos, const NodeParams& params,
           sim::Scheduler& sched, net::Channel& channel,
           const acoustic::SoundField& field, sim::Rng rng, bool is_sync_root,
           Metrics& metrics)
    : id_(id),
      pos_(pos),
      params_(params),
      sched_(sched),
      rng_(rng),
      metrics_(metrics),
      radio_(channel.create_radio(id, pos)),
      flash_(params.flash),
      eeprom_(),
      store_(flash_, eeprom_, params.store),
      mic_(field, pos),
      detector_(sched, mic_, fork_for(rng, "detector"), params.detector),
      energy_(params.energy),
      clock_(sched,
             fork_for(rng, "clock").uniform(-kClockOffsetMaxS,
                                            kClockOffsetMaxS),
             fork_for(rng, "drift").uniform(-kClockDriftMaxPpm,
                                            kClockDriftMaxPpm)),
      proto_timer_(sched),
      nb_(*radio_, sched, params.nb),
      timesync_(id, sched, fork_for(rng, "sync"), clock_, nb_, is_sync_root),
      group_(*this),
      tasking_(*this),
      recorder_(*this),
      balancer_(*this),
      bulk_(*this),
      coded_(*this),
      retrieval_(*this) {
  radio_->set_receive_handler([this](const net::Packet& p) { dispatch(p); });
  radio_->set_airtime_handler(
      [this](double seconds, bool is_tx) { energy_.charge_airtime(seconds, is_tx); });

  detector_.set_onset_handler([this] {
    timesync_.note_activity();
    if (cfg().mode == Mode::kUncoordinated) {
      recorder_.baseline_on_onset();
    } else {
      group_.on_onset();
    }
  });
  detector_.set_offset_handler([this] {
    if (cfg().mode != Mode::kUncoordinated) group_.on_offset();
  });
}

void Node::start() {
  if (started_) return;
  started_ = true;
  detector_.start();
  if (cfg().mode != Mode::kUncoordinated) {
    timesync_.start();
  }
  if (cfg().mode == Mode::kFull) {
    balancer_.start();
  }
  if (cfg().duty_cycle < 1.0) {
    // Stagger sleep phases across nodes so the network is never globally
    // dark, then run awake/asleep alternation.
    const auto awake =
        cfg().duty_period.scaled(std::clamp(cfg().duty_cycle, 0.0, 1.0));
    const auto stagger = sim::Time::ticks(
        rng_.uniform_int(0, std::max<std::int64_t>(1, awake.raw_ticks())));
    duty_timer_ =
        sched_.after(stagger, [this] { duty_tick(/*go_to_sleep=*/true); });
  }
}

void Node::duty_tick(bool go_to_sleep) {
  if (failed_ || down_) return;
  const double duty = std::clamp(cfg().duty_cycle, 0.0, 1.0);
  const auto awake = cfg().duty_period.scaled(duty);
  const auto asleep_for = cfg().duty_period - awake;
  if (go_to_sleep) {
    if (recording_) {
      // Never interrupt an in-progress recording task; retry shortly.
      duty_timer_ = sched_.after(sim::Time::millis(200),
                                 [this] { duty_tick(/*go_to_sleep=*/true); });
      return;
    }
    asleep_ = true;
    radio_->set_on(false);
    detector_.set_enabled(false);
    energy_.set_radio_on(sched_.now(), false);
    duty_timer_ = sched_.after(asleep_for,
                               [this] { duty_tick(/*go_to_sleep=*/false); });
  } else {
    asleep_ = false;
    radio_->set_on(true);
    detector_.set_enabled(true);
    energy_.set_radio_on(sched_.now(), true);
    duty_timer_ =
        sched_.after(awake, [this] { duty_tick(/*go_to_sleep=*/true); });
  }
}

sim::Time Node::proc_delay() {
  const auto lo = kControlProcMin.raw_ticks();
  const auto hi = kControlProcMax.raw_ticks();
  return sim::Time::ticks(rng_.uniform_int(lo, hi));
}

void Node::set_recording(bool recording) {
  if (failed_ || down_ || recording_ == recording) return;
  recording_ = recording;
  const bool radio_on = !recording && !asleep_;
  radio_->set_on(radio_on);
  energy_.set_radio_on(sched_.now(), radio_on);
  energy_.set_sampling(sched_.now(), recording);
}

void Node::fail(bool lose_data) {
  if (failed_) return;
  failed_ = true;
  data_lost_ = lose_data;
  recording_ = false;
  radio_->set_on(false);
  detector_.set_enabled(false);
  energy_.set_radio_on(sched_.now(), false);
  energy_.set_sampling(sched_.now(), false);
  // Tear down protocol state so dangling timers become no-ops (the dead
  // radio drops any residual sends anyway).
  if (cfg().mode != Mode::kUncoordinated && group_.hearing()) {
    group_.on_offset();
  }
  tasking_.stop();
  duty_timer_.cancel();
  // Account the dying transfer session (an in-flight outgoing chunk is a
  // duplicate risk — the receiver may complete it from retransmit buffers)
  // and drop partial reassembly state, before the blanket disarm below. An
  // in-progress coded dispersal dies with its RAM fragments; the original
  // chunk is still on flash.
  coded_.reset();
  bulk_.reset();
  // A permanently dead node never speaks again: drop every standing protocol
  // deadline and the queued lazy traffic (whose flush timer would otherwise
  // retry against the dead radio forever).
  proto_timer_.disarm_all();
  nb_.reset();
  metrics_.note_crash(/*permanent=*/true);
  sim::trace_instant(sched_.trace(), sched_.now(), sim::TraceEvent::kFail, id_,
                     0, lose_data ? 1 : 0);
}

bool Node::crash() {
  if (failed_ || down_) return false;
  down_ = true;
  crash_time_ = sched_.now();
  recording_ = false;
  asleep_ = false;
  duty_timer_.cancel();
  radio_->set_on(false);
  detector_.set_enabled(false);
  energy_.set_radio_on(sched_.now(), false);
  energy_.set_sampling(sched_.now(), false);
  // Snapshot the stored keys so reboot can verify recovery against what the
  // flash actually held (the chaos invariant).
  precrash_keys_.clear();
  store_.for_each([this](const storage::ChunkMeta& m) {
    precrash_keys_.push_back(m.key);
  });
  // RAM dies: every component drops its soft state and timers. The flash,
  // the EEPROM checkpoint, and the store's on-flash image survive.
  nb_.reset();
  timesync_.reset();
  group_.reset();
  tasking_.stop();
  recorder_.reset();
  balancer_.reset();
  coded_.reset();
  bulk_.reset();
  retrieval_.reset();
  metrics_.note_crash(/*permanent=*/false);
  sim::trace_instant(sched_.trace(), sched_.now(), sim::TraceEvent::kCrash,
                     id_);
  return true;
}

bool Node::reboot() {
  if (failed_ || !down_) return false;
  down_ = false;
  // §III-B.3: rebuild the specialized file system from the OOB tags and the
  // last EEPROM checkpoint — the same path the offline recovery test walks.
  store_.reload_from_flash();
  std::uint64_t recovered = 0;
  std::uint64_t mismatched = 0;
  {
    std::set<std::uint64_t> have;
    store_.for_each(
        [&](const storage::ChunkMeta& m) { have.insert(m.key); });
    recovered = have.size();
    for (const auto k : precrash_keys_) {
      if (!have.count(k)) ++mismatched;
    }
  }
  precrash_keys_.clear();
  radio_->set_on(true);
  detector_.set_enabled(true);
  energy_.set_radio_on(sched_.now(), true);
  if (cfg().mode != Mode::kUncoordinated) timesync_.start();
  if (cfg().mode == Mode::kFull) balancer_.start();
  if (cfg().duty_cycle < 1.0) {
    duty_timer_ = sched_.after(cfg().duty_period.scaled(cfg().duty_cycle),
                               [this] { duty_tick(/*go_to_sleep=*/true); });
  }
  metrics_.note_recovery(recovered, mismatched);
  metrics_.note_reboot(sched_.now() - crash_time_);
  sim::trace_instant(sched_.trace(), sched_.now(), sim::TraceEvent::kReboot,
                     id_, recovered, mismatched,
                     (sched_.now() - crash_time_).to_seconds());
  return true;
}

void Node::brownout(sim::Time duration) {
  if (failed_ || down_) return;
  metrics_.note_brownout();
  sim::trace_instant(sched_.trace(), sched_.now(), sim::TraceEvent::kBrownout,
                     id_, 0, 0, duration.to_seconds());
  radio_->set_on(false);
  energy_.set_radio_on(sched_.now(), false);
  sched_.after(duration, [this] {
    if (failed_ || down_) return;
    // set_recording / duty cycling own the radio while recording or asleep;
    // let them restore it in that case.
    if (!recording_ && !asleep_) {
      radio_->set_on(true);
      energy_.set_radio_on(sched_.now(), true);
    }
  });
}

void Node::clock_step(double seconds) {
  if (failed_ || down_) return;
  clock_.step(seconds);
  metrics_.note_clock_step();
  sim::trace_instant(sched_.trace(), sched_.now(), sim::TraceEvent::kClockStep,
                     id_, 0, 0, seconds);
}

void Node::dispatch(const net::Packet& p) {
  if (failed_ || down_) return;
  sim::ProfileScope ps(sched_.profiler(), sim::ProfTag::kProtocolDispatch);
  for (const auto& m : p.messages) on_message(m, p.src, p.dst);
}

void Node::on_message(const net::Message& m, net::NodeId src,
                      net::NodeId dst) {
  std::visit(
      [this, src, dst](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, net::LeaderAnnounce>) {
          group_.handle(msg);
        } else if constexpr (std::is_same_v<T, net::Resign>) {
          group_.handle(msg);
        } else if constexpr (std::is_same_v<T, net::Sensing>) {
          group_.handle(msg);
          balancer_.note_neighbor(msg.sender, msg.ttl_seconds, msg.free_bytes);
          if (tasking_.active()) tasking_.note_member_alive(msg.sender);
        } else if constexpr (std::is_same_v<T, net::TaskRequest>) {
          group_.note_task_activity(msg.event);
          group_.note_foreign_leader(msg.leader, msg.event);
          if (msg.recorder == id_) recorder_.handle(msg);
        } else if constexpr (std::is_same_v<T, net::TaskConfirm>) {
          group_.note_task_activity(msg.event);
          recorder_.note_overheard_confirm(msg);
          if (tasking_.active()) tasking_.handle(msg);
        } else if constexpr (std::is_same_v<T, net::TaskReject>) {
          group_.note_task_activity(msg.event);
          if (tasking_.active()) tasking_.handle(msg);
        } else if constexpr (std::is_same_v<T, net::PreludeKeep>) {
          recorder_.handle(msg);
        } else if constexpr (std::is_same_v<T, net::StateBeacon>) {
          balancer_.handle(msg);
        } else if constexpr (std::is_same_v<T, net::TransferOffer>) {
          bulk_.handle(msg);
        } else if constexpr (std::is_same_v<T, net::TransferGrant>) {
          bulk_.handle(msg);
        } else if constexpr (std::is_same_v<T, net::TransferData>) {
          bulk_.handle(msg);
        } else if constexpr (std::is_same_v<T, net::TransferAck>) {
          bulk_.handle(msg);
        } else if constexpr (std::is_same_v<T, net::TimeSyncBeacon>) {
          timesync_.handle(msg);
        } else if constexpr (std::is_same_v<T, net::QueryRequest>) {
          retrieval_.handle(msg, src);
        } else if constexpr (std::is_same_v<T, net::QueryReply>) {
          retrieval_.handle(msg, dst);
        }
      },
      m);
}

}  // namespace enviromic::core
