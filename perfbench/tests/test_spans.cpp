#include <gtest/gtest.h>

#include <string>

#include "spans.hpp"

using perfbench::SpanRecorder;

// A synthetic trace:
//
//   run  [0, 100)
//   ├── a [10, 30)
//   └── b [40, 70)
//       └── a [45, 50)     (same layer as an ancestor's sibling, not ancestor)
//           └── a [46, 48) (nested in its own layer: not double-busy)
TEST(Spans, SelfTimeIsSpanTimeMinusChildTime) {
  SpanRecorder rec(true);
  const int run = rec.add("run", 0, 100, -1);
  rec.add("a", 10, 30, run);
  const int b = rec.add("b", 40, 70, run);
  const int inner = rec.add("a", 45, 50, b);
  rec.add("a", 46, 48, inner);

  const auto totals = rec.totals();
  EXPECT_EQ(totals.at("run").self_ns, 100 - 20 - 30);
  EXPECT_EQ(totals.at("b").self_ns, 30 - 5);
  // a: 20 (no children) + (5 - 2) + 2.
  EXPECT_EQ(totals.at("a").self_ns, 20 + 3 + 2);
  EXPECT_EQ(totals.at("a").count, 3);
  // Busy time counts the innermost `a` once, inside its `a` parent.
  EXPECT_EQ(totals.at("a").busy_ns, 20 + 5);
  EXPECT_EQ(totals.at("run").busy_ns, 100);

  // Self times partition the top-level span exactly.
  std::int64_t self_sum = 0;
  for (const auto& [name, t] : totals) self_sum += t.self_ns;
  EXPECT_EQ(self_sum, 100);
  EXPECT_EQ(rec.self_ns_since(0), 100);
  EXPECT_EQ(rec.self_ns_since(40), 25 + 3 + 2);
}

TEST(Spans, LiveScopesNestAndCloseInOrder) {
  SpanRecorder rec(true);
  {
    SpanRecorder::Scope outer(rec, "outer");
    SpanRecorder::Scope inner(rec, "inner");
  }
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_LE(rec.spans()[0].start_ns, rec.spans()[1].start_ns);
  EXPECT_GE(rec.spans()[0].end_ns, rec.spans()[1].end_ns);
  const auto totals = rec.totals();
  EXPECT_EQ(totals.at("outer").self_ns + totals.at("inner").self_ns,
            totals.at("outer").busy_ns);
}

TEST(Spans, DisabledRecorderRecordsNothing) {
  SpanRecorder rec(false);
  { SpanRecorder::Scope s(rec, "x"); }
  EXPECT_TRUE(rec.spans().empty());
  EXPECT_TRUE(rec.totals().empty());
}

TEST(Spans, ChromeTraceCarriesEventsParentsAndLayerTotals) {
  SpanRecorder rec(true);
  const int run = rec.add("run", 0, 2500, -1);
  rec.add("child", 1000, 1500, run);
  const std::string json = rec.chrome_json(1);
  EXPECT_NE(json.find("\"traceEvents\":[{\"name\":\"run\",\"ph\":\"X\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ts\":0.000,\"dur\":2.500"), std::string::npos);
  EXPECT_EQ(json.find("\"name\":\"child\""), std::string::npos);  // capped
  EXPECT_NE(json.find("\"spansRecorded\":2,\"spansWritten\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"child\":{\"busy_us\":0.500,\"self_us\":0.500,"
                      "\"count\":1}"),
            std::string::npos);
  EXPECT_NE(json.find("\"run\":{\"busy_us\":2.500,\"self_us\":2.000,"
                      "\"count\":1}"),
            std::string::npos);
}
