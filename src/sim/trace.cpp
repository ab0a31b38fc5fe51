#include "sim/trace.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <utility>

#include "sim/telemetry.h"
#include "util/parse.h"

namespace enviromic::sim {

const char* trace_event_name(TraceEvent e) {
  switch (e) {
    case TraceEvent::kLeadership: return "leadership";
    case TraceEvent::kTaskRecord: return "task_record";
    case TraceEvent::kPrelude: return "prelude";
    case TraceEvent::kBulkSession: return "bulk_session";
    case TraceEvent::kCodedDisperse: return "coded_disperse";
    case TraceEvent::kDrainSession: return "drain_session";
    case TraceEvent::kLeader: return "leader";
    case TraceEvent::kResign: return "resign";
    case TraceEvent::kWatchdog: return "watchdog";
    case TraceEvent::kTaskRequest: return "task_request";
    case TraceEvent::kTaskConfirm: return "task_confirm";
    case TraceEvent::kTaskReject: return "task_reject";
    case TraceEvent::kConfirmTimeout: return "confirm_timeout";
    case TraceEvent::kPreludeCommit: return "prelude_commit";
    case TraceEvent::kPreludeErased: return "prelude_erased";
    case TraceEvent::kBalance: return "balance";
    case TraceEvent::kWindowStall: return "window_stall";
    case TraceEvent::kFragRetx: return "frag_retx";
    case TraceEvent::kTransferSack: return "transfer_sack";
    case TraceEvent::kChannelSend: return "chan_send";
    case TraceEvent::kChannelDeliver: return "chan_deliver";
    case TraceEvent::kChannelDrop: return "chan_drop";
    case TraceEvent::kCrash: return "crash";
    case TraceEvent::kReboot: return "reboot";
    case TraceEvent::kFail: return "fail";
    case TraceEvent::kBrownout: return "brownout";
    case TraceEvent::kClockStep: return "clock_step";
    case TraceEvent::kCodedEncode: return "coded_encode";
    case TraceEvent::kCodedDecode: return "coded_decode";
    case TraceEvent::kDrainChunk: return "drain_chunk";
    case TraceEvent::kDrainAck: return "drain_ack";
    case TraceEvent::kTransferRxExpired: return "transfer_rx_expired";
  }
  return "unknown";
}

namespace {

// Sim ticks run at 32.768 MHz; Chrome-trace timestamps are microseconds.
double ticks_to_us(std::int64_t ticks) { return static_cast<double>(ticks) / 32.768; }

}  // namespace

Trace::Trace(std::size_t capacity) : cap_(capacity == 0 ? 1 : capacity) {
  // Reserve a modest floor so small traces never reallocate mid-run; large
  // caps grow on demand.
  ring_.reserve(cap_ < 4096 ? cap_ : 4096);
}

void Trace::record(Time t, TraceEvent e, TracePhase ph, std::uint32_t node,
                   std::uint64_t a, std::uint64_t b, double x, double y) {
  TraceRecord r;
  r.t_ticks = t.raw_ticks();
  r.event = e;
  r.phase = ph;
  r.pad = 0;
  r.node = node;
  r.a = a;
  r.b = b;
  r.x = x;
  r.y = y;
  ++total_;
  if (ring_.size() < cap_) {
    ring_.push_back(r);
    return;
  }
  ring_[head_] = r;
  head_ = (head_ + 1) % cap_;
  wrapped_ = true;
}

std::size_t Trace::size() const { return ring_.size(); }

void Trace::for_each(const std::function<void(const TraceRecord&)>& fn) const {
  if (!wrapped_) {
    for (const auto& r : ring_) fn(r);
    return;
  }
  for (std::size_t i = 0; i < ring_.size(); ++i)
    fn(ring_[(head_ + i) % ring_.size()]);
}

void Trace::dump_tail(std::size_t n, std::ostream& out) const {
  std::size_t have = ring_.size();
  std::size_t skip = have > n ? have - n : 0;
  std::size_t i = 0;
  for_each([&](const TraceRecord& r) {
    if (i++ < skip) return;
    const char* ph = r.phase == TracePhase::kBegin
                         ? "B"
                         : (r.phase == TracePhase::kEnd ? "E" : "i");
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "[t=%.6fs] node %u %s/%s a=%" PRIu64 " b=%" PRIu64
                  " x=%.4g y=%.4g",
                  Time::ticks(r.t_ticks).to_seconds(), r.node,
                  trace_event_name(r.event), ph, r.a, r.b, r.x, r.y);
    out << buf << '\n';
  });
}

bool Trace::export_chrome_trace(const std::string& path,
                                const Telemetry& counters) const {
  std::ofstream out(path);
  if (!out) return false;
  export_chrome_trace(out, counters);
  return static_cast<bool>(out);
}

bool Trace::export_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  export_jsonl(out);
  return static_cast<bool>(out);
}

void Trace::export_chrome_trace(std::ostream& out,
                                const Telemetry& counters) const {
  // pid = node id, tid = track. Track 0 holds instant markers, tracks 1..N
  // one per span kind. Spans are paired into ph:"X" complete events per
  // (node, kind); an unmatched end is dropped and an unmatched begin is
  // closed at the last record's timestamp. Every telemetry cell becomes a
  // ph:"C" counter event: per-node series on the node's process, global
  // series on one "world" process numbered after the highest node.
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& ev) {
    if (!first) out << ',';
    first = false;
    out << '\n' << ev;
  };
  char buf[512];

  std::map<std::pair<std::uint32_t, std::uint8_t>, std::vector<TraceRecord>>
      open_spans;
  // node -> bitmask of the event/span tids used (0..6).
  std::map<std::uint32_t, std::uint32_t> tracks_used;
  std::int64_t last_ticks = 0;

  auto tid_for = [](TraceEvent e) -> int {
    switch (e) {
      case TraceEvent::kLeadership: return 1;
      case TraceEvent::kTaskRecord: return 2;
      case TraceEvent::kPrelude: return 3;
      case TraceEvent::kBulkSession: return 4;
      case TraceEvent::kCodedDisperse: return 5;
      case TraceEvent::kDrainSession: return 6;
      default: return 0;
    }
  };

  auto emit_span = [&](const TraceRecord& b, std::int64_t end_ticks,
                       std::uint64_t end_a, std::uint64_t end_b, double end_x) {
    double ts = ticks_to_us(b.t_ticks);
    double dur = ticks_to_us(end_ticks) - ts;
    if (dur < 0) dur = 0;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"a\":%" PRIu64
                  ",\"b\":%" PRIu64 ",\"end_a\":%" PRIu64 ",\"end_b\":%" PRIu64
                  ",\"end_x\":%g}}",
                  trace_event_name(b.event), b.node, tid_for(b.event), ts, dur,
                  b.a, b.b, end_a, end_b, end_x);
    emit(buf);
  };

  for_each([&](const TraceRecord& r) {
    last_ticks = r.t_ticks;
    tracks_used[r.node] |= 1u << tid_for(r.event);
    if (r.phase == TracePhase::kBegin) {
      open_spans[{r.node, static_cast<std::uint8_t>(r.event)}].push_back(r);
      return;
    }
    if (r.phase == TracePhase::kEnd) {
      auto it = open_spans.find({r.node, static_cast<std::uint8_t>(r.event)});
      if (it == open_spans.end() || it->second.empty()) return;  // pre-trace begin lost to wrap
      TraceRecord b = it->second.back();
      it->second.pop_back();
      emit_span(b, r.t_ticks, r.a, r.b, r.x);
      return;
    }
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%u,"
                  "\"tid\":0,\"ts\":%.3f,\"args\":{\"a\":%" PRIu64
                  ",\"b\":%" PRIu64 ",\"x\":%g,\"y\":%g}}",
                  trace_event_name(r.event), r.node, ticks_to_us(r.t_ticks),
                  r.a, r.b, r.x, r.y);
    emit(buf);
  });

  // Close spans still open at the end of the trace.
  for (auto& [key, stack] : open_spans)
    for (const auto& b : stack) emit_span(b, last_ticks, 0, 0, 0.0);

  // Counter tracks. Nodes that only carry counters still get a named process.
  counters.for_each_cell([&](const Telemetry::Cell& c) {
    if (c.scope == SeriesScope::kPerNode) tracks_used.try_emplace(c.node, 0u);
  });
  const std::uint32_t world_pid =
      tracks_used.empty() ? 0 : tracks_used.rbegin()->first + 1;
  bool world_used = false;
  counters.for_each_cell([&](const Telemetry::Cell& c) {
    const bool per_node = c.scope == SeriesScope::kPerNode;
    world_used = world_used || !per_node;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":%u,\"ts\":%.3f,"
                  "\"args\":{\"value\":%s}}",
                  c.series.c_str(), per_node ? c.node : world_pid,
                  ticks_to_us(c.t.raw_ticks()),
                  util::format_double(c.value).c_str());
    emit(buf);
  });

  // Metadata: readable process (node) and thread (track) names.
  static const char* kTrackNames[] = {"events",  "leadership", "task",
                                      "prelude", "migration",  "coded",
                                      "drain"};
  for (const auto& [node, mask] : tracks_used) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                  "\"args\":{\"name\":\"node %u\"}}",
                  node, node);
    emit(buf);
    for (int tid = 0; tid < 7; ++tid) {
      if (!(mask & (1u << tid))) continue;
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,"
                    "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                    node, tid, kTrackNames[tid]);
      emit(buf);
    }
  }
  if (world_used) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                  "\"args\":{\"name\":\"world\"}}",
                  world_pid);
    emit(buf);
  }
  out << "\n]}\n";
}

void Trace::export_jsonl(std::ostream& out) const {
  char buf[512];
  for_each([&](const TraceRecord& r) {
    const char* ph = r.phase == TracePhase::kBegin
                         ? "B"
                         : (r.phase == TracePhase::kEnd ? "E" : "i");
    std::snprintf(buf, sizeof(buf),
                  "{\"t\":%" PRId64 ",\"s\":%.6f,"
                  "\"ev\":\"%s\",\"ph\":\"%s\",\"node\":%u,\"a\":%" PRIu64
                  ",\"b\":%" PRIu64 ",\"x\":%g,\"y\":%g}",
                  r.t_ticks, Time::ticks(r.t_ticks).to_seconds(),
                  trace_event_name(r.event), ph, r.node, r.a, r.b, r.x, r.y);
    out << buf << '\n';
  });
}

}  // namespace enviromic::sim
