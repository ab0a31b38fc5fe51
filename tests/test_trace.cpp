// Tests for the structured trace recorder (sim/trace.h): ring semantics,
// span pairing and telemetry counter tracks in the Chrome-trace exporter,
// and exporter well-formedness.
//
// The exporters write JSON by hand, so the well-formedness checks here walk
// the output with a small structural scanner (balanced braces/brackets
// outside string literals) rather than a full parser; scripts/ci.sh
// additionally json.load()s a real exported trace.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/scheduler.h"
#include "sim/telemetry.h"
#include "sim/trace.h"

namespace enviromic::sim {
namespace {

// Structural JSON check: braces and brackets balance outside strings, and
// nothing trails the top-level value.
void expect_balanced_json(const std::string& text) {
  int depth = 0;
  bool in_string = false, escaped = false, closed = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) escaped = false;
      else if (c == '\\') escaped = true;
      else if (c == '"') in_string = false;
      continue;
    }
    if (closed) {
      EXPECT_TRUE(c == '\n' || c == ' ') << "trailing content after JSON";
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': ++depth; break;
      case '}': case ']':
        --depth;
        ASSERT_GE(depth, 0) << "unbalanced close";
        if (depth == 0) closed = true;
        break;
      default: break;
    }
  }
  EXPECT_FALSE(in_string) << "unterminated string";
  EXPECT_TRUE(closed) << "JSON value never closed";
}

std::size_t count_occurrences(const std::string& text, const std::string& pat) {
  std::size_t n = 0;
  for (auto at = text.find(pat); at != std::string::npos;
       at = text.find(pat, at + pat.size()))
    ++n;
  return n;
}

TEST(TraceTest, DisabledRecordingIsANoOp) {
  // A scheduler starts dark, and the helpers do nothing without a ring.
  EXPECT_EQ(Scheduler{}.trace(), nullptr);
  trace_instant(nullptr, Time::seconds_i(1), TraceEvent::kLeader, 3);
  trace_begin(nullptr, Time::seconds_i(1), TraceEvent::kLeadership, 3);
  trace_end(nullptr, Time::seconds_i(2), TraceEvent::kLeadership, 3);
  // A default ring is what a dark run returns: empty.
  const Trace dark;
  EXPECT_EQ(dark.size(), 0u);
  EXPECT_EQ(dark.total_recorded(), 0u);
  EXPECT_EQ(dark.capacity(), 0u);
}

TEST(TraceTest, RingGrowsThenWrapsOverwritingOldest) {
  Trace trace(/*capacity=*/8);
  EXPECT_EQ(trace.capacity(), 8u);
  for (std::uint64_t i = 0; i < 5; ++i)
    trace_instant(&trace, Time::millis(static_cast<std::int64_t>(i)),
                  TraceEvent::kBalance, 1, i);
  EXPECT_EQ(trace.size(), 5u);
  EXPECT_FALSE(trace.wrapped());

  for (std::uint64_t i = 5; i < 20; ++i)
    trace_instant(&trace, Time::millis(static_cast<std::int64_t>(i)),
                  TraceEvent::kBalance, 1, i);
  EXPECT_EQ(trace.size(), 8u);
  EXPECT_TRUE(trace.wrapped());
  EXPECT_EQ(trace.total_recorded(), 20u);

  // for_each visits oldest-first: the 8 survivors are a = 12..19 in order.
  std::vector<std::uint64_t> seen;
  trace.for_each([&](const TraceRecord& r) { seen.push_back(r.a); });
  ASSERT_EQ(seen.size(), 8u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], 12 + i);

  // dump_tail keeps only the most recent n.
  std::ostringstream tail;
  trace.dump_tail(3, tail);
  EXPECT_EQ(count_occurrences(tail.str(), "\n"), 3u);
  EXPECT_NE(tail.str().find("a=19"), std::string::npos);
  EXPECT_EQ(tail.str().find("a=12"), std::string::npos);
}

TEST(TraceTest, ChromeExportPairsNestedAndInterleavedSpans) {
  Trace ring(64);
  Trace* const trace = &ring;
  // Node 1: a leadership tenure with a task-record span nested inside it,
  // plus a second task span on node 2 interleaved in time.
  trace_begin(trace, Time::seconds_i(10), TraceEvent::kLeadership, 1, 77);
  trace_begin(trace, Time::seconds_i(11), TraceEvent::kTaskRecord, 1, 77);
  trace_begin(trace, Time::seconds_i(12), TraceEvent::kTaskRecord, 2, 78);
  trace_end(trace, Time::seconds_i(13), TraceEvent::kTaskRecord, 1, 77, 4096);
  trace_end(trace, Time::seconds_i(14), TraceEvent::kTaskRecord, 2, 78, 2048);
  trace_end(trace, Time::seconds_i(15), TraceEvent::kLeadership, 1, 77);
  // An unmatched begin must still surface (closed at the trace's end)...
  trace_begin(trace, Time::seconds_i(16), TraceEvent::kBulkSession, 3, 9);
  // ...and an unmatched end must be dropped, not crash or mis-pair.
  trace_end(trace, Time::seconds_i(17), TraceEvent::kPrelude, 4);

  std::ostringstream out;
  ring.export_chrome_trace(out, Telemetry{});
  const std::string json = out.str();
  expect_balanced_json(json);
  // 3 paired spans + 1 force-closed bulk session, no span for the orphan end.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 4u);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"task_record\""), 2u);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"bulk_session\""), 1u);
  // (the track metadata may still name the prelude track; no span exists)
  EXPECT_EQ(count_occurrences(json, "\"name\":\"prelude\",\"ph\":\"X\""), 0u);
  // Spans land on their per-kind tracks; the tenure spans 5 sim seconds.
  EXPECT_NE(json.find("\"name\":\"leadership\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"dur\":5000000.000"), std::string::npos);
  // Track metadata names the processes.
  EXPECT_NE(json.find("\"name\":\"node 1\""), std::string::npos);
}

TEST(TraceTest, ChromeExportEmitsInstantsAndCounterSamples) {
  Trace trace(64);
  trace_instant(&trace, Time::seconds_i(1), TraceEvent::kCrash, 5, 0, 1);
  trace_instant(&trace, Time::seconds_i(1), TraceEvent::kLeader, 2, 9);
  // The run's recorder: one global and one per-node series, four cells.
  // Node 7 appears only in the telemetry.
  Telemetry tel;
  const auto g = tel.register_series("g", SeriesKind::kGauge,
                                     SeriesScope::kGlobal);
  const auto p = tel.register_series("p", SeriesKind::kCounter,
                                     SeriesScope::kPerNode);
  tel.begin_sample(Time::seconds_i(1));
  tel.record(g, 0, 1.5);
  tel.record(p, 5, 3.0);
  tel.record(p, 7, 4.0);
  tel.begin_sample(Time::seconds_i(2));
  tel.record(g, 0, 2.5);  // `p` skips this row: no counter event for it
  std::ostringstream out;
  trace.export_chrome_trace(out, tel);
  const std::string json = out.str();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"name\":\"crash\",\"ph\":\"i\""), std::string::npos);
  // One counter event per recorded cell: per-node cells on the node's pid,
  // global cells on the world process after the highest node (7 -> 8).
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"C\""), 4u);
  EXPECT_NE(json.find("{\"name\":\"p\",\"ph\":\"C\",\"pid\":5,"
                      "\"ts\":1000000.000,\"args\":{\"value\":3}}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"p\",\"ph\":\"C\",\"pid\":7,"
                      "\"ts\":1000000.000,\"args\":{\"value\":4}}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"g\",\"ph\":\"C\",\"pid\":8,"
                      "\"ts\":1000000.000,\"args\":{\"value\":1.5}}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"g\",\"ph\":\"C\",\"pid\":8,"
                      "\"ts\":2000000.000,\"args\":{\"value\":2.5}}"),
            std::string::npos);
  EXPECT_NE(json.find("\"pid\":8,\"args\":{\"name\":\"world\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node 7\""), std::string::npos);
}

TEST(TraceTest, JsonlExportEmitsOneWellFormedObjectPerRecord) {
  Trace trace(64);
  trace_instant(&trace, Time::seconds_i(1), TraceEvent::kLeader, 2, 99);
  trace_begin(&trace, Time::seconds_i(2), TraceEvent::kPrelude, 2, 99);
  trace_end(&trace, Time::seconds_i(3), TraceEvent::kPrelude, 2, 99);
  std::ostringstream out;
  trace.export_jsonl(out);
  std::istringstream lines(out.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    expect_balanced_json(line);
  }
  EXPECT_EQ(n, trace.size());
  EXPECT_NE(out.str().find("\"ev\":\"leader\",\"ph\":\"i\""),
            std::string::npos);
  EXPECT_NE(out.str().find("\"ev\":\"prelude\",\"ph\":\"B\""),
            std::string::npos);
  EXPECT_NE(out.str().find("\"ev\":\"prelude\",\"ph\":\"E\""),
            std::string::npos);
}

}  // namespace
}  // namespace enviromic::sim
