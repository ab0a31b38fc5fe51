#include "core/recorder.h"

#include <algorithm>

#include "acoustic/sampler.h"
#include "core/metrics.h"
#include "core/node.h"
#include "sim/trace.h"

namespace {
enviromic::sim::TraceEvent span_kind(bool is_prelude) {
  return is_prelude ? enviromic::sim::TraceEvent::kPrelude
                    : enviromic::sim::TraceEvent::kTaskRecord;
}
std::uint64_t ev_key(const enviromic::net::EventId& e) {
  return enviromic::sim::trace_pack(e.origin, e.seq);
}
}  // namespace

namespace enviromic::core {

namespace {
/// Length of the prelude recorded at onset while the group forms (paper
/// §II-A.1).
constexpr sim::Time kPreludeLength = sim::Time::seconds_i(1);
}  // namespace

RecorderComponent::RecorderComponent(Node& node) : node_(node) {}

void RecorderComponent::handle(const net::TaskRequest& m) {
  if (m.recorder != node_.id() || recording_) return;

  // Fig 1's overhearing optimization: if we already heard a TASK_CONFIRM at
  // or past this round+replica, someone is recording — reject so the leader
  // moves on.
  bool covered = false;
  const sim::Time now = node_.sched().now();
  for (const auto& w : overheard_) {
    if (w.event != m.event) continue;
    if (now - w.heard_at > node_.cfg().task_period * 4) break;  // stale
    covered = w.round > m.round ||
              (w.round == m.round && w.replica >= m.replica);
    break;
  }
  if (covered) {
    net::TaskReject rej;
    rej.event = m.event;
    rej.recorder = node_.id();
    rej.round = m.round;
    rej.replica = m.replica;
    node_.sched().after(node_.proc_delay(), [this, rej] {
      if (!recording_) {
        node_.nb().send_now(rej);
        ++stats_.tasks_rejected;
      }
    });
    return;
  }

  net::TaskConfirm conf;
  conf.event = m.event;
  conf.recorder = node_.id();
  conf.round = m.round;
  conf.replica = m.replica;
  const sim::Time start_at = m.start_at;
  const sim::Time duration = m.duration;
  const std::uint32_t epoch = epoch_;
  node_.sched().after(node_.proc_delay(), [this, conf, start_at, duration,
                                           epoch] {
    if (recording_ || epoch != epoch_) return;
    node_.nb().send_now(conf);
    // "starts recording immediately after the message is successfully sent
    // out" — but not before the task's scheduled start (seamless hand-over).
    const sim::Time begin = std::max(node_.sched().now(), start_at);
    RecordingKind kind;
    kind.event = conf.event;
    node_.sched().at(begin, [this, kind, duration, epoch] {
      if (recording_ || epoch != epoch_) return;
      ++stats_.tasks_performed;
      begin_recording(kind, duration);
    });
  });
}

void RecorderComponent::note_overheard_confirm(const net::TaskConfirm& m) {
  if (m.recorder == node_.id()) return;
  const sim::Time now = node_.sched().now();
  OverheardMark* mark = nullptr;
  for (auto& w : overheard_) {
    if (w.event == m.event) {
      mark = &w;
      break;
    }
  }
  if (!mark) {
    overheard_.push_back(OverheardMark{m.event, m.round, m.replica, now});
  } else {
    // Monotone watermark: only advance. A late confirm from an older round
    // still refreshes the expiry (someone is demonstrably recording).
    if (m.round > mark->round ||
        (m.round == mark->round && m.replica >= mark->replica)) {
      mark->round = m.round;
      mark->replica = m.replica;
    }
    mark->heard_at = now;
  }
  node_.group().note_recorder_busy(m.recorder, now + node_.cfg().task_period);
  // Prune watermarks of long-finished events occasionally.
  if (overheard_.size() > 8) {
    std::erase_if(overheard_, [&](const OverheardMark& w) {
      return now - w.heard_at > node_.cfg().task_period * 4;
    });
  }
}

void RecorderComponent::handle(const net::PreludeKeep& m) {
  if (!last_prelude_key_) return;
  if (m.keeper == node_.id()) {
    last_prelude_key_.reset();  // we keep ours
    return;
  }
  if (node_.store().pop_tail_if(*last_prelude_key_)) {
    ++stats_.preludes_erased;
    sim::trace_instant(node_.sched().trace(), node_.sched().now(),
                       sim::TraceEvent::kPreludeErased, node_.id(),
                       *last_prelude_key_);
    node_.metrics().note_prelude_erased(*last_prelude_key_);
  }
  last_prelude_key_.reset();
}

void RecorderComponent::start_prelude() {
  if (recording_) return;
  ++stats_.preludes_recorded;
  RecordingKind kind;
  kind.is_prelude = true;
  begin_recording(kind, kPreludeLength);
}

void RecorderComponent::start_self_task(const net::EventId& event,
                                        sim::Time duration) {
  if (recording_) return;
  ++stats_.tasks_performed;
  RecordingKind kind;
  kind.event = event;
  begin_recording(kind, duration);
}

void RecorderComponent::baseline_on_onset() {
  if (recording_) return;
  RecordingKind kind;
  kind.baseline = true;
  ++stats_.baseline_chunks;
  begin_recording(kind, node_.cfg().task_period);
}

void RecorderComponent::begin_recording(const RecordingKind& kind,
                                        sim::Time duration) {
  if (node_.failed() || node_.down()) return;
  recording_ = true;
  node_.set_recording(true);
  const sim::Time started = node_.sched().now();
  sim::trace_begin(node_.sched().trace(), started, span_kind(kind.is_prelude),
                   node_.id(), ev_key(kind.event), node_.id());
  const std::uint32_t epoch = epoch_;
  node_.sched().after(duration, [this, kind, started, epoch] {
    // Crossing a crash (epoch bump) means the sampled audio died with RAM:
    // drop instead of committing a chunk the node never finished writing.
    if (epoch != epoch_) return;
    finish_recording(kind, started);
  });
}

void RecorderComponent::reset() {
  ++epoch_;
  recording_ = false;
  overheard_.clear();
  last_prelude_key_.reset();
}

void RecorderComponent::finish_recording(const RecordingKind& kind,
                                         sim::Time started) {
  const sim::Time ended = node_.sched().now();
  recording_ = false;
  node_.set_recording(false);
  // A mote that died mid-task never completed the flash write.
  if (node_.failed()) {
    sim::trace_end(node_.sched().trace(), ended, span_kind(kind.is_prelude),
                   node_.id(), ev_key(kind.event), 0, /*aborted=*/1.0);
    return;
  }

  const auto bytes =
      static_cast<std::uint32_t>(acoustic::bytes_for(ended - started));
  storage::Chunk chunk;
  chunk.meta.key = node_.store().next_key(node_.id());
  chunk.meta.event = kind.event;
  chunk.meta.is_prelude = kind.is_prelude;
  chunk.meta.recorded_by = node_.id();
  // Stored timestamps come from the (synchronized) local clock; the
  // instrumentation below uses true simulation time.
  const sim::Time err = node_.clock().corrected_now() - ended;
  chunk.meta.start = started + err;
  chunk.meta.end = ended + err;
  chunk.meta.bytes = bytes;
  if (node_.flash().capacity_bytes() > 0 &&
      node_.params().flash.store_payloads) {
    chunk.payload = acoustic::capture(node_.mic(), started, ended);
    if (node_.cfg().chunk_codec != storage::CodecKind::kNone) {
      // Store compressed: the flash footprint shrinks while the recorded
      // interval (and hence coverage metrics) stays the same.
      chunk.payload = storage::encode(node_.cfg().chunk_codec, chunk.payload);
      chunk.meta.bytes = static_cast<std::uint32_t>(chunk.payload.size());
    }
  }

  const std::uint64_t key = chunk.meta.key;
  const bool appended = node_.store().append(std::move(chunk));
  sim::trace_end(node_.sched().trace(), ended, span_kind(kind.is_prelude),
                 node_.id(), ev_key(kind.event), bytes);
  if (!appended) ++stats_.overflows;
  stats_.bytes_recorded += bytes;
  node_.energy().charge_flash_write(appended ? bytes : 0);
  node_.balancer().note_recorded_bytes(bytes);
  node_.metrics().note_recorded(key, node_.id(), node_.position(), started,
                                ended, bytes, appended, kind.is_prelude);
  if (kind.is_prelude) {
    last_prelude_key_ = key;
    sim::trace_instant(node_.sched().trace(), ended,
                       sim::TraceEvent::kPreludeCommit, node_.id(), key, bytes);
    node_.group().begin_coordination();
    return;
  }
  if (kind.baseline) {
    // Uncoordinated baseline: chain while the event is still detected.
    if (node_.detector().event_present()) {
      ++stats_.baseline_chunks;
      begin_recording(kind, node_.cfg().task_period);
    }
    return;
  }
  // Cooperative task finished: rejoin coordination (heartbeats resume on
  // their timer; nothing else to do).
}

}  // namespace enviromic::core
