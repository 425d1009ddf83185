// Unit tests for the glint::obs telemetry layer: histogram bucket/quantile
// correctness against an exact sorted reference, concurrent-increment
// totals, snapshot-merge determinism across thread counts, registry
// collision enforcement, ScopedTimer feeding, and the off-switch.
//
// Minimal linkage (glint_obs + gtest only) so the TSAN stage of
// tools/check.sh can build it without the model stack.

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/obs.h"

namespace glint::obs {
namespace {

/// Restores collection on scope exit; tests that disable it must not leak
/// the off state into later tests.
struct EnabledGuard {
  ~EnabledGuard() { SetEnabled(true); }
};

TEST(Counter, AddAndValue) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(Counter, ConcurrentIncrementsAllLand) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&c]() {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(Gauge, SetAddPeak) {
  Gauge g;
  g.Set(3);
  g.Add(4);
  EXPECT_EQ(g.Value(), 7);
  EXPECT_EQ(g.Peak(), 7);
  g.Add(-5);
  EXPECT_EQ(g.Value(), 2);
  EXPECT_EQ(g.Peak(), 7);  // high-water mark survives the drop
  g.Set(1);
  EXPECT_EQ(g.Peak(), 7);
}

TEST(Histogram, BucketBoundariesAreInclusiveUpperEdges) {
  Histogram h({1.0, 2.0, 5.0});
  // One observation per interesting position: below, exactly on each edge,
  // between edges, and past the last edge (overflow).
  for (double x : {0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 6.0}) h.Observe(x);
  const auto counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);  // 0.5, 1.0  (x <= 1)
  EXPECT_EQ(counts[1], 2u);  // 1.5, 2.0  (1 < x <= 2)
  EXPECT_EQ(counts[2], 2u);  // 3.0, 5.0  (2 < x <= 5)
  EXPECT_EQ(counts[3], 1u);  // 6.0       (overflow)
  EXPECT_EQ(h.Count(), 7u);
  EXPECT_NEAR(h.Sum(), 19.0, 1e-9);
}

TEST(Histogram, QuantileTracksExactSortedReference) {
  // Uniform bucket ladder with width 10 over observations 1..200: the
  // interpolated estimate must stay within one bucket width of the exact
  // nearest-rank percentile.
  std::vector<double> bounds;
  for (double b = 10; b <= 200; b += 10) bounds.push_back(b);
  Histogram h(bounds);
  std::vector<double> xs;
  for (int i = 1; i <= 200; ++i) xs.push_back(double(i));
  for (double x : xs) h.Observe(x);
  std::sort(xs.begin(), xs.end());
  for (double q : {0.10, 0.25, 0.50, 0.90, 0.95, 0.99}) {
    const size_t rank = static_cast<size_t>(
        std::ceil(q * double(xs.size()))) - 1;
    const double exact = xs[std::min(rank, xs.size() - 1)];
    EXPECT_NEAR(h.Quantile(q), exact, 10.0) << "q=" << q;
  }
  EXPECT_NEAR(h.Quantile(0.0), 0.0, 10.0);
  EXPECT_NEAR(h.Quantile(1.0), 200.0, 10.0);
}

TEST(Histogram, OverflowQuantileSaturatesAtLastEdge) {
  Histogram h({1.0, 2.0});
  h.Observe(100.0);
  h.Observe(200.0);
  // Everything is in the overflow bucket, whose upper edge is unknown; the
  // estimate reports the last finite edge rather than inventing a value.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 2.0);
}

TEST(Histogram, LatencyLadderCoversMicrosecondsToSeconds) {
  const auto b = Histogram::LatencyBucketsMs();
  ASSERT_FALSE(b.empty());
  EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
  EXPECT_DOUBLE_EQ(b.front(), 1e-3);  // 1us
  EXPECT_DOUBLE_EQ(b.back(), 1e4);    // 10s
}

TEST(Histogram, SnapshotMergeIsDeterministicAcrossThreadCounts) {
  // The same multiset of observations, split across 1 / 2 / 4 / 8 threads,
  // must merge to identical totals and bucket counts: shard layout is an
  // implementation detail, not an output.
  std::vector<double> xs;
  for (int i = 0; i < 4096; ++i) xs.push_back(double(i % 97) * 0.25);
  std::vector<uint64_t> reference;
  for (int threads : {1, 2, 4, 8}) {
    Histogram h(Histogram::LatencyBucketsMs());
    std::vector<std::thread> ts;
    const size_t per = xs.size() / static_cast<size_t>(threads);
    for (int t = 0; t < threads; ++t) {
      const size_t lo = static_cast<size_t>(t) * per;
      const size_t hi = t == threads - 1 ? xs.size() : lo + per;
      ts.emplace_back([&h, &xs, lo, hi]() {
        for (size_t i = lo; i < hi; ++i) h.Observe(xs[i]);
      });
    }
    for (auto& t : ts) t.join();
    EXPECT_EQ(h.Count(), xs.size()) << threads << " threads";
    const auto counts = h.BucketCounts();
    if (reference.empty()) {
      reference = counts;
    } else {
      EXPECT_EQ(counts, reference) << threads << " threads";
    }
  }
}

TEST(Registry, LookupsAreIdempotent) {
  auto& reg = Registry::Global();
  Counter* c1 = reg.GetCounter("test.obs.idempotent");
  Counter* c2 = reg.GetCounter("test.obs.idempotent");
  EXPECT_EQ(c1, c2);
  Histogram* h1 = reg.GetHistogram("test.obs.idempotent_ms");
  Histogram* h2 = reg.GetHistogram("test.obs.idempotent_ms");
  EXPECT_EQ(h1, h2);
}

TEST(RegistryDeathTest, KindCollisionAborts) {
  auto& reg = Registry::Global();
  reg.GetCounter("test.obs.collision");
  EXPECT_DEATH(reg.GetGauge("test.obs.collision"), "collision");
}

TEST(RegistryDeathTest, HistogramBoundsCollisionAborts) {
  auto& reg = Registry::Global();
  reg.GetHistogram("test.obs.bounds_ms", {1.0, 2.0});
  EXPECT_DEATH(reg.GetHistogram("test.obs.bounds_ms", {1.0, 3.0}),
               "collision");
}

TEST(Registry, SnapshotAndJsonAreByteStable) {
  auto& reg = Registry::Global();
  reg.GetCounter("test.obs.snap")->Add(5);
  reg.GetGauge("test.obs.snap_gauge")->Set(2);
  reg.GetHistogram("test.obs.snap_ms")->Observe(1.5);
  const auto s1 = reg.TakeSnapshot();
  const auto s2 = reg.TakeSnapshot();
  EXPECT_EQ(s1.RenderJson(), s2.RenderJson());
  EXPECT_EQ(s1.RenderText(), s2.RenderText());
  EXPECT_NE(s1.RenderJson().find("\"test.obs.snap\":5"), std::string::npos);
  EXPECT_NE(s1.RenderJson().find(
                "\"test.obs.snap_gauge\":{\"value\":2,\"peak\":2}"),
            std::string::npos);
  EXPECT_EQ(s1.histograms.at("test.obs.snap_ms").count, 1u);
}

TEST(ScopedTimer, FeedsHistogramWhenEnabled) {
  Histogram* h = Registry::Global().GetHistogram("test.obs.timer_ms");
  { ScopedTimer t(h); }
  EXPECT_EQ(h->Count(), 1u);
  // The macro resolves the name once per site and feeds the same series.
  for (int i = 0; i < 3; ++i) {
    GLINT_OBS_TIMER(timer, "test.obs.timer_ms");
  }
  EXPECT_EQ(h->Count(), 4u);
}

TEST(Disabled, NothingRecords) {
  EnabledGuard guard;
  auto& reg = Registry::Global();
  Counter* c = reg.GetCounter("test.obs.off_counter");
  Gauge* g = reg.GetGauge("test.obs.off_gauge");
  Histogram* h = reg.GetHistogram("test.obs.off_ms");
  Histogram* timed = reg.GetHistogram("test.obs.off_timer_ms");
  SetEnabled(false);
  c->Add(7);
  g->Set(7);
  h->Observe(7.0);
  { ScopedTimer t(timed); }
  { GLINT_OBS_TIMER(timer, "test.obs.off_timer_ms"); }
  SetEnabled(true);
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(g->Value(), 0);
  EXPECT_EQ(h->Count(), 0u);
  EXPECT_EQ(timed->Count(), 0u);
}

}  // namespace
}  // namespace glint::obs
