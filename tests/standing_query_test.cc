// Standing-query suite: the golden equivalence contract (every emitted
// window result is bit-identical to the one-shot IndexedAggregate /
// IndexedHistogram over the same inclusive range), watermark/registration
// floor semantics, alert fire/resolve transitions, empty-window handling,
// subscription backpressure, and equivalence across the demotion tier.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/common/file.h"
#include "src/core/loom.h"

namespace loom {
namespace {

constexpr uint32_t kSource = 1;

std::vector<uint8_t> ValuePayload(double v, size_t pad_to = 48) {
  std::vector<uint8_t> buf(std::max(pad_to, sizeof(double)), 0);
  std::memcpy(buf.data(), &v, sizeof(double));
  return buf;
}

// Indexes the leading double, skipping negative values — the skipped
// records make chunks "not fully indexed", which forces the standing
// engine down the same rescan path the one-shot planner takes.
Loom::IndexFunc SelectiveIndexFunc() {
  return [](std::span<const uint8_t> payload) -> std::optional<double> {
    if (payload.size() < sizeof(double)) {
      return std::nullopt;
    }
    double v;
    std::memcpy(&v, payload.data(), sizeof(double));
    if (v < 0.0) {
      return std::nullopt;
    }
    return v;
  };
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

class StandingQueryTest : public ::testing::Test {
 protected:
  void Open(bool tiered = false) {
    LoomOptions opts;
    opts.dir = dir_.FilePath(tiered ? "loom_t" : "loom");
    opts.chunk_size = 1024;  // ~13 records of 48 B payload per chunk
    opts.record_block_size = 8192;
    opts.chunk_index_block_size = 4096;
    opts.ts_index_block_size = 4096;
    opts.ts_marker_period = 8;
    opts.enable_chunk_index = true;
    opts.enable_timestamp_index = true;
    if (tiered) {
      opts.archive_dir = dir_.FilePath("cold");
      opts.record_retain_bytes = 32 << 10;
    }
    opts.clock = &clock_;
    auto loom = Loom::Open(opts);
    ASSERT_TRUE(loom.ok()) << loom.status().ToString();
    loom_ = std::move(loom.value());
    ASSERT_TRUE(loom_->DefineSource(kSource).ok());
    auto idx = loom_->DefineIndex(kSource, SelectiveIndexFunc(),
                                  HistogramSpec::Uniform(0.0, 100.0, 10).value());
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    index_id_ = idx.value();
  }

  uint64_t Register(StandingAggregate aggregate, uint64_t window_nanos,
                    StandingAlertRule alert = {}, bool emit_empty = false) {
    StandingQuerySpec spec;
    spec.name = std::string("q_") + StandingAggregateName(aggregate);
    spec.source_id = kSource;
    spec.index_id = index_id_;
    spec.aggregate = aggregate;
    spec.window_nanos = window_nanos;
    spec.alert = alert;
    spec.emit_empty_windows = emit_empty;
    auto id = loom_->RegisterStandingQuery(spec);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    specs_[id.value()] = spec;
    return id.value();
  }

  void Push(double v, TimestampNanos step_ns = 500) {
    clock_.AdvanceNanos(step_ns);
    ASSERT_TRUE(loom_->Push(kSource, ValuePayload(v)).ok());
  }

  // Mixed workload: mostly in-range values, some negatives (unindexed) and
  // some > 100 (overflow bin).
  void PushMixed(int n) {
    for (int i = 0; i < n; ++i) {
      Push(std::fmod(i * 7.37, 125.0) - 10.0);
    }
  }

  std::vector<StandingEvent> Drain(StandingSubscription* sub) {
    std::vector<StandingEvent> out;
    for (;;) {
      auto batch = sub->Poll(256, 0);
      if (batch.empty()) {
        break;
      }
      out.insert(out.end(), batch.begin(), batch.end());
    }
    return out;
  }

  // The golden check: every field of an emitted window must match the
  // one-shot operators over the same inclusive range, bit-for-bit.
  void ExpectWindowMatchesOneShot(const StandingWindowResult& w) {
    const StandingQuerySpec& spec = specs_.at(w.query_id);
    const TimeRange range{w.window_start, w.window_end};
    ASSERT_EQ(w.window_end, w.window_start + spec.window_nanos - 1);

    auto count = loom_->IndexedAggregate(kSource, index_id_, range, AggregateMethod::kCount);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(static_cast<uint64_t>(count.value()), w.count);

    auto sum = loom_->IndexedAggregate(kSource, index_id_, range, AggregateMethod::kSum);
    ASSERT_TRUE(sum.ok());
    EXPECT_EQ(Bits(sum.value()), Bits(w.sum)) << "sum mismatch in window " << w.window_index;

    auto min = loom_->IndexedAggregate(kSource, index_id_, range, AggregateMethod::kMin);
    auto max = loom_->IndexedAggregate(kSource, index_id_, range, AggregateMethod::kMax);
    if (w.count == 0) {
      EXPECT_EQ(min.status().code(), StatusCode::kNotFound);
      EXPECT_EQ(max.status().code(), StatusCode::kNotFound);
    } else {
      ASSERT_TRUE(min.ok());
      ASSERT_TRUE(max.ok());
      EXPECT_EQ(Bits(min.value()), Bits(w.min));
      EXPECT_EQ(Bits(max.value()), Bits(w.max));
    }

    auto hist = loom_->IndexedHistogram(kSource, index_id_, range);
    ASSERT_TRUE(hist.ok()) << hist.status().ToString();
    EXPECT_EQ(hist.value(), w.bin_counts) << "histogram mismatch in window " << w.window_index;

    // The query's chosen aggregate, with the one-shot's NotFound semantics.
    AggregateMethod method = AggregateMethod::kCount;
    switch (spec.aggregate) {
      case StandingAggregate::kCount:
        method = AggregateMethod::kCount;
        break;
      case StandingAggregate::kSum:
        method = AggregateMethod::kSum;
        break;
      case StandingAggregate::kMin:
        method = AggregateMethod::kMin;
        break;
      case StandingAggregate::kMax:
        method = AggregateMethod::kMax;
        break;
      case StandingAggregate::kMean:
        method = AggregateMethod::kMean;
        break;
    }
    auto value = loom_->IndexedAggregate(kSource, index_id_, range, method);
    if (w.has_value) {
      ASSERT_TRUE(value.ok()) << value.status().ToString();
      EXPECT_EQ(Bits(value.value()), Bits(w.value));
    } else {
      EXPECT_EQ(value.status().code(), StatusCode::kNotFound);
    }
  }

  // Registers one query per aggregate, ingests a mixed workload, and
  // bit-compares every emitted window against the one-shot planner.
  void RunGoldenEquivalence(uint64_t window_nanos, int records) {
    Open();
    for (StandingAggregate agg :
         {StandingAggregate::kCount, StandingAggregate::kSum, StandingAggregate::kMin,
          StandingAggregate::kMax, StandingAggregate::kMean}) {
      Register(agg, window_nanos);
    }
    auto sub = loom_->SubscribeStanding(0, 1 << 16);
    ASSERT_NE(sub, nullptr);
    PushMixed(records);
    ASSERT_TRUE(loom_->Sync(kSource).ok());

    std::map<uint64_t, int> windows_per_query;
    int checked = 0;
    for (const StandingEvent& ev : Drain(sub.get())) {
      if (ev.kind != StandingEvent::Kind::kWindow) {
        continue;
      }
      ExpectWindowMatchesOneShot(ev.window);
      ++windows_per_query[ev.window.query_id];
      ++checked;
    }
    // All five queries share windows; each must have emitted a real run.
    ASSERT_EQ(windows_per_query.size(), 5u);
    for (const auto& [qid, n] : windows_per_query) {
      EXPECT_GE(n, 4) << "query " << qid << " emitted too few windows";
    }
    EXPECT_GE(checked, 20);
    sub->Close();
  }

  TempDir dir_;
  ManualClock clock_{1};
  std::unique_ptr<Loom> loom_;
  uint32_t index_id_ = 0;
  std::map<uint64_t, StandingQuerySpec> specs_;
};

// --- Golden equivalence ---------------------------------------------------

TEST_F(StandingQueryTest, GoldenEquivalenceInlineFoldHeavy) {
  // Window spans several chunks: most contributions arrive via summary fold.
  RunGoldenEquivalence(/*window_nanos=*/32'000, /*records=*/600);
}

TEST_F(StandingQueryTest, GoldenEquivalenceInlineScanHeavy) {
  // Sub-chunk windows: every chunk straddles boundaries, forcing rescans.
  RunGoldenEquivalence(/*window_nanos=*/3'000, /*records=*/600);
}

TEST_F(StandingQueryTest, GoldenEquivalenceSurvivesDemotion) {
  Open(/*tiered=*/true);
  Register(StandingAggregate::kSum, 8'000);
  Register(StandingAggregate::kMean, 8'000);
  auto sub = loom_->SubscribeStanding(0, 1 << 16);
  PushMixed(800);
  ASSERT_TRUE(loom_->Sync(kSource).ok());
  auto events = Drain(sub.get());

  // Demote until the cold tier stops growing, then re-check every emitted
  // window against the (now cross-tier) one-shot planner.
  size_t prev;
  do {
    prev = loom_->ArchiveCount();
    ASSERT_TRUE(loom_->DemoteNow().ok());
  } while (loom_->ArchiveCount() != prev);
  ASSERT_GE(loom_->ArchiveCount(), 1u);

  int checked = 0;
  for (const StandingEvent& ev : events) {
    if (ev.kind != StandingEvent::Kind::kWindow) {
      continue;
    }
    ExpectWindowMatchesOneShot(ev.window);
    ++checked;
  }
  EXPECT_GE(checked, 20);
}

// --- Watermark and registration floor -------------------------------------

TEST_F(StandingQueryTest, WatermarkAdvancesWithoutQueries) {
  Open();
  PushMixed(100);  // several chunk seals, zero queries registered
  EXPECT_GT(loom_->standing()->watermark(), 0u);
}

TEST_F(StandingQueryTest, RegistrationFloorSkipsInProgressWindows) {
  Open();
  PushMixed(200);
  const TimestampNanos registration_watermark = loom_->standing()->watermark();
  ASSERT_GT(registration_watermark, 0u);

  const uint64_t w = 8'000;
  Register(StandingAggregate::kCount, w);
  auto sub = loom_->SubscribeStanding(0, 1 << 16);
  PushMixed(300);
  ASSERT_TRUE(loom_->Sync(kSource).ok());

  // Every emitted window starts strictly after the registration watermark
  // (the engine never saw the earlier chunks for the in-progress window).
  const uint64_t floor = registration_watermark / w + 1;
  int emitted = 0;
  for (const StandingEvent& ev : Drain(sub.get())) {
    if (ev.kind != StandingEvent::Kind::kWindow) {
      continue;
    }
    EXPECT_GE(ev.window.window_index, floor);
    EXPECT_GT(ev.window.window_start, registration_watermark - w);
    ExpectWindowMatchesOneShot(ev.window);
    ++emitted;
  }
  EXPECT_GE(emitted, 3);
  // The first post-registration seal carried records below the floor; they
  // must be counted late, not emitted wrong.
  EXPECT_GT(loom_->standing()->stats().late_windows, 0u);
}

TEST_F(StandingQueryTest, WindowsCloseOnlyAtSeal) {
  Open();
  Register(StandingAggregate::kCount, 2'000);
  auto sub = loom_->SubscribeStanding(0, 256);
  // Two records: far too few to fill a chunk, so nothing seals and nothing
  // can be emitted — the watermark has not moved.
  Push(1.0);
  Push(2.0);
  EXPECT_TRUE(sub->Poll(16, 0).empty());
  EXPECT_EQ(loom_->standing()->stats().windows_emitted, 0u);
}

// --- Alerts ---------------------------------------------------------------

TEST_F(StandingQueryTest, AlertFiresAfterConsecutiveBreachesAndResolves) {
  Open();
  StandingAlertRule rule;
  rule.kind = StandingAlertRule::Kind::kAbove;
  rule.threshold = 50.0;
  rule.for_windows = 2;
  const uint64_t qid = Register(StandingAggregate::kMax, 8'000, rule);
  auto sub = loom_->SubscribeStanding(qid, 1 << 14);

  for (int i = 0; i < 120; ++i) {
    Push(10.0);  // calm
  }
  for (int i = 0; i < 120; ++i) {
    Push(90.0);  // breach: max > 50 for many consecutive windows
  }
  for (int i = 0; i < 120; ++i) {
    Push(10.0);  // recovery
  }
  ASSERT_TRUE(loom_->Sync(kSource).ok());

  std::vector<StandingAlertEvent> alerts;
  std::map<uint64_t, StandingWindowResult> windows;
  for (const StandingEvent& ev : Drain(sub.get())) {
    if (ev.kind == StandingEvent::Kind::kAlert) {
      alerts.push_back(ev.alert);
    } else {
      windows[ev.window.window_index] = ev.window;
    }
  }
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_TRUE(alerts[0].firing);
  EXPECT_GT(alerts[0].value, 50.0);
  EXPECT_EQ(alerts[0].threshold, 50.0);
  EXPECT_FALSE(alerts[1].firing);
  EXPECT_GT(alerts[1].window_start, alerts[0].window_start);

  // for_windows=2: the window before the firing one must also breach, and
  // the firing window's result must carry alert_firing.
  const uint64_t fired_wi = alerts[0].window_index;
  ASSERT_TRUE(windows.count(fired_wi));
  ASSERT_TRUE(windows.count(fired_wi - 1));
  EXPECT_TRUE(windows[fired_wi].alert_firing);
  EXPECT_FALSE(windows[fired_wi - 1].alert_firing);
  EXPECT_GT(windows[fired_wi - 1].max, 50.0);

  EXPECT_EQ(loom_->standing()->stats().alerts_fired, 1u);
  EXPECT_EQ(loom_->standing()->stats().alerts_resolved, 1u);
}

TEST_F(StandingQueryTest, OutlierBinAlert) {
  Open();
  StandingAlertRule rule;
  rule.kind = StandingAlertRule::Kind::kOutlierBins;
  rule.threshold = 1.0;  // any under/overflow record in a window fires
  rule.for_windows = 1;
  const uint64_t qid = Register(StandingAggregate::kCount, 8'000, rule);
  auto sub = loom_->SubscribeStanding(qid, 1 << 14);

  for (int i = 0; i < 120; ++i) {
    Push(50.0);  // all in-range
  }
  for (int i = 0; i < 40; ++i) {
    Push(150.0);  // overflow bin
  }
  for (int i = 0; i < 120; ++i) {
    Push(50.0);
  }
  ASSERT_TRUE(loom_->Sync(kSource).ok());

  std::vector<StandingAlertEvent> alerts;
  for (const StandingEvent& ev : Drain(sub.get())) {
    if (ev.kind == StandingEvent::Kind::kAlert) {
      alerts.push_back(ev.alert);
    }
  }
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_TRUE(alerts[0].firing);
  EXPECT_FALSE(alerts[1].firing);
}

// --- Empty windows --------------------------------------------------------

TEST_F(StandingQueryTest, EmptyWindowsSkippedByDefault) {
  Open();
  Register(StandingAggregate::kCount, 2'000);
  auto sub = loom_->SubscribeStanding(0, 1 << 14);
  PushMixed(50);
  clock_.AdvanceNanos(200'000);  // a long quiet gap: ~100 empty windows
  PushMixed(50);
  ASSERT_TRUE(loom_->Sync(kSource).ok());

  for (const StandingEvent& ev : Drain(sub.get())) {
    if (ev.kind == StandingEvent::Kind::kWindow) {
      EXPECT_GT(ev.window.count, 0u) << "empty window emitted despite default";
    }
  }
  EXPECT_GT(loom_->standing()->stats().windows_empty, 50u);
}

TEST_F(StandingQueryTest, EmptyWindowsEmittedOnRequestAndMatchOneShot) {
  Open();
  StandingQuerySpec spec;
  spec.name = "emit_empty";
  spec.source_id = kSource;
  spec.index_id = index_id_;
  spec.aggregate = StandingAggregate::kMean;
  spec.window_nanos = 2'000;
  spec.emit_empty_windows = true;
  auto id = loom_->RegisterStandingQuery(spec);
  ASSERT_TRUE(id.ok());
  specs_[id.value()] = spec;

  auto sub = loom_->SubscribeStanding(0, 1 << 14);
  PushMixed(50);
  clock_.AdvanceNanos(20'000);  // ~10 empty windows
  PushMixed(50);
  ASSERT_TRUE(loom_->Sync(kSource).ok());

  int empty_seen = 0;
  for (const StandingEvent& ev : Drain(sub.get())) {
    if (ev.kind != StandingEvent::Kind::kWindow) {
      continue;
    }
    ExpectWindowMatchesOneShot(ev.window);
    if (ev.window.count == 0) {
      ++empty_seen;
      EXPECT_FALSE(ev.window.has_value);  // mean of nothing = NotFound
    }
  }
  EXPECT_GE(empty_seen, 5);
}

// --- Subscriptions and lifecycle ------------------------------------------

TEST_F(StandingQueryTest, SubscriptionOverflowDropsAndCounts) {
  Open();
  Register(StandingAggregate::kCount, 1'000);
  auto sub = loom_->SubscribeStanding(0, 2);  // tiny queue, never polled
  PushMixed(600);
  ASSERT_TRUE(loom_->Sync(kSource).ok());
  EXPECT_GT(sub->dropped(), 0u);
  EXPECT_EQ(loom_->standing()->stats().events_dropped, sub->dropped());
  EXPECT_LE(sub->DepthApprox(), 2u);
}

TEST_F(StandingQueryTest, SubscriptionFiltersByQueryId) {
  Open();
  const uint64_t q1 = Register(StandingAggregate::kCount, 8'000);
  const uint64_t q2 = Register(StandingAggregate::kSum, 8'000);
  auto only_q2 = loom_->SubscribeStanding(q2, 1 << 14);
  PushMixed(300);
  ASSERT_TRUE(loom_->Sync(kSource).ok());
  auto events = Drain(only_q2.get());
  ASSERT_FALSE(events.empty());
  for (const StandingEvent& ev : events) {
    EXPECT_EQ(ev.window.query_id, q2);
    EXPECT_NE(ev.window.query_id, q1);
  }
}

TEST_F(StandingQueryTest, UnregisterStopsEvaluation) {
  Open();
  const uint64_t qid = Register(StandingAggregate::kCount, 4'000);
  auto sub = loom_->SubscribeStanding(0, 1 << 14);
  PushMixed(200);
  ASSERT_TRUE(loom_->Sync(kSource).ok());
  ASSERT_FALSE(Drain(sub.get()).empty());

  ASSERT_TRUE(loom_->UnregisterStandingQuery(qid).ok());
  PushMixed(200);
  ASSERT_TRUE(loom_->Sync(kSource).ok());
  EXPECT_TRUE(Drain(sub.get()).empty());
  EXPECT_EQ(loom_->standing()->stats().queries, 0u);

  EXPECT_EQ(loom_->UnregisterStandingQuery(qid).code(), StatusCode::kNotFound);
}

TEST_F(StandingQueryTest, RegisterValidatesSpec) {
  Open();
  StandingQuerySpec spec;
  spec.source_id = kSource;
  spec.index_id = index_id_;
  spec.window_nanos = 0;  // invalid
  EXPECT_EQ(loom_->RegisterStandingQuery(spec).status().code(), StatusCode::kInvalidArgument);

  spec.window_nanos = 1'000;
  spec.index_id = 999;  // no such index
  EXPECT_FALSE(loom_->RegisterStandingQuery(spec).ok());
}

TEST_F(StandingQueryTest, ClosedSubscriptionIsPruned) {
  Open();
  Register(StandingAggregate::kCount, 4'000);
  auto sub = loom_->SubscribeStanding(0, 16);
  EXPECT_EQ(loom_->standing()->stats().subscribers, 1u);
  sub->Close();
  PushMixed(100);  // next publish prunes the closed stream
  ASSERT_TRUE(loom_->Sync(kSource).ok());
  EXPECT_EQ(loom_->standing()->stats().subscribers, 0u);
}

}  // namespace
}  // namespace loom
