#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/flusher.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "util/thread_pool.h"

namespace sy::obs {
namespace {

// The suite asserts on recorded values, so force instrumentation live even
// if the environment set SY_OBS_OFF (the kill-switch test flips it back).
class ObsEnabledGuard : public ::testing::Test {
 protected:
  void SetUp() override { set_enabled(true); }
  void TearDown() override { set_enabled(true); }
};

using Buckets = ObsEnabledGuard;
using Counters = ObsEnabledGuard;
using Histograms = ObsEnabledGuard;
using Spans = ObsEnabledGuard;
using Registries = ObsEnabledGuard;
using Flushers = ObsEnabledGuard;
using KillSwitch = ObsEnabledGuard;

TEST_F(Buckets, BoundariesRoundTripAndTile) {
  // Every bucket's lower bound maps back to that bucket, and buckets tile
  // the uint64 range with no gaps or overlaps.
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_lower_bound(i)), i);
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_upper_bound(i)), i);
    if (i + 1 < Histogram::kBuckets) {
      EXPECT_EQ(Histogram::bucket_upper_bound(i) + 1,
                Histogram::bucket_lower_bound(i + 1));
    }
  }
  EXPECT_EQ(Histogram::bucket_upper_bound(Histogram::kBuckets - 1),
            ~std::uint64_t{0});
}

TEST_F(Buckets, IndexIsMonotoneAndDeterministic) {
  std::size_t prev = 0;
  for (std::uint64_t v = 0; v < 4096; ++v) {
    const std::size_t index = Histogram::bucket_index(v);
    EXPECT_GE(index, prev);
    EXPECT_LE(Histogram::bucket_lower_bound(index), v);
    EXPECT_GE(Histogram::bucket_upper_bound(index), v);
    prev = index;
  }
  // Pure function of the value: same inputs, same bucket, every time.
  for (std::uint64_t v : {std::uint64_t{7}, std::uint64_t{8},
                          std::uint64_t{12345}, std::uint64_t{1} << 40}) {
    EXPECT_EQ(Histogram::bucket_index(v), Histogram::bucket_index(v));
  }
}

TEST_F(Buckets, RelativeWidthIsBounded) {
  // 8 linear sub-buckets per power of two => worst-case percentile error is
  // one bucket width, <= 12.5% of the value.
  for (std::size_t i = 2 * Histogram::kSubCount; i < Histogram::kBuckets - 1;
       ++i) {
    const double lo = static_cast<double>(Histogram::bucket_lower_bound(i));
    const double hi = static_cast<double>(Histogram::bucket_upper_bound(i));
    EXPECT_LE((hi - lo) / lo, 0.125);
  }
}

TEST_F(Counters, MergesShardsExactlyUnderThreadPoolHammer) {
  Counter counter;
  Histogram hist;
  util::ThreadPool pool(4);
  constexpr std::size_t kN = 20000;
  pool.parallel_for(kN, [&](std::size_t i) {
    counter.inc();
    hist.record(i % 1000);
  });
  EXPECT_EQ(counter.value(), kN);
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, kN);
  EXPECT_EQ(snap.max, 999u);
  std::uint64_t total = 0;
  for (const auto& [index, count] : snap.buckets) total += count;
  EXPECT_EQ(total, kN);
}

TEST_F(Histograms, PercentilesWithinBucketError) {
  Histogram hist;
  for (std::uint64_t v = 1; v <= 1000; ++v) hist.record(v * 1000);
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.max, 1000000u);
  // True pXX of {1000..1000000} is XX0000; the estimate is the bucket upper
  // bound, so it can only overshoot, by at most 12.5%.
  for (const auto& [p, truth] :
       {std::pair{0.50, 500000.0}, {0.95, 950000.0}, {0.99, 990000.0}}) {
    const auto est = static_cast<double>(snap.percentile(p));
    EXPECT_GE(est, truth);
    EXPECT_LE(est, truth * 1.125);
  }
  // p100 clamps to the exact max, not a bucket boundary.
  EXPECT_EQ(snap.percentile(1.0), 1000000u);
  EXPECT_EQ(HistogramSnapshot{}.percentile(0.5), 0u);
}

TEST_F(Histograms, SnapshotsAreDeterministic) {
  Histogram a;
  Histogram b;
  for (std::uint64_t v : {5u, 17u, 17u, 300u, 70000u}) {
    a.record(v);
    b.record(v);
  }
  const HistogramSnapshot sa = a.snapshot();
  const HistogramSnapshot sb = b.snapshot();
  EXPECT_EQ(sa.count, sb.count);
  EXPECT_EQ(sa.sum, sb.sum);
  EXPECT_EQ(sa.max, sb.max);
  EXPECT_EQ(sa.buckets, sb.buckets);
  // Repeated reads of an idle histogram are bit-identical.
  const HistogramSnapshot again = a.snapshot();
  EXPECT_EQ(again.buckets, sa.buckets);
}

TEST_F(Histograms, ConcurrentRecordAndSnapshot) {
  // Recorders race snapshot(); TSan (the obs_ CI job) checks this test for
  // data races, and the final merge must still be exact.
  Histogram hist;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      const HistogramSnapshot snap = hist.snapshot();
      std::uint64_t total = 0;
      for (const auto& [index, count] : snap.buckets) total += count;
      EXPECT_EQ(total, snap.count);
    }
  });
  constexpr std::size_t kPerThread = 5000;
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      for (std::size_t i = 0; i < kPerThread; ++i) hist.record(i);
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(hist.snapshot().count, 4 * kPerThread);
}

TEST_F(Spans, NestAndRecordOnce) {
  Histogram outer_hist;
  Histogram inner_hist;
  EXPECT_EQ(Span::depth(), 0u);
  {
    Span outer(&outer_hist);
    EXPECT_EQ(Span::depth(), 1u);
    {
      Span inner(&inner_hist);
      EXPECT_EQ(Span::depth(), 2u);
    }
    EXPECT_EQ(Span::depth(), 1u);
    outer.finish();
    EXPECT_EQ(Span::depth(), 0u);
    outer.finish();  // Idempotent: second finish records nothing.
  }
  EXPECT_EQ(outer_hist.snapshot().count, 1u);
  EXPECT_EQ(inner_hist.snapshot().count, 1u);

  { Span noop(nullptr); }  // Null histogram: no-op, no depth change.
  EXPECT_EQ(Span::depth(), 0u);

  Histogram moved_hist;
  {
    Span a(&moved_hist);
    Span b(std::move(a));  // Only the move target records.
  }
  EXPECT_EQ(moved_hist.snapshot().count, 1u);
  EXPECT_EQ(Span::depth(), 0u);
}

TEST_F(Spans, StageTimerSplitsAnOperation) {
  Histogram total;
  Histogram stage_a;
  Histogram stage_b;
  {
    StageTimer timer(&total);
    timer.stage(&stage_a);
    timer.finish(&stage_b);
    timer.finish(&stage_b);  // Idempotent after finish().
  }
  EXPECT_EQ(total.snapshot().count, 1u);
  EXPECT_EQ(stage_a.snapshot().count, 1u);
  EXPECT_EQ(stage_b.snapshot().count, 1u);
  // Boundaries are shared clock reads, so the stages partition the total.
  EXPECT_LE(stage_a.snapshot().sum + stage_b.snapshot().sum,
            total.snapshot().sum);

  Histogram abandoned_total;
  Histogram open_stage;
  {
    StageTimer timer(&abandoned_total);
    timer.stage(&open_stage);
    // Early exit: destructor records the total, the open stage is dropped.
  }
  EXPECT_EQ(abandoned_total.snapshot().count, 1u);
  EXPECT_EQ(open_stage.snapshot().count, 1u);

  set_enabled(false);
  {
    StageTimer timer(&total);
    timer.stage(&stage_a);
    timer.finish(&stage_b);
  }
  set_enabled(true);
  EXPECT_EQ(total.snapshot().count, 1u);  // Disabled timers record nothing.
}

TEST_F(Registries, HandlesAreStableAndNamed) {
  Registry registry;
  Counter& c1 = registry.counter("test.events");
  Counter& c2 = registry.counter("test.events");
  EXPECT_EQ(&c1, &c2);
  c1.inc(3);
  registry.gauge("test.depth").set(-7);
  registry.histogram("test.latency_ns").record(4096);
  registry.register_callback_gauge("test.sampled", [] { return 42; });

  const Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("test.events"), 3u);
  EXPECT_EQ(snap.gauges.at("test.depth"), -7);
  EXPECT_EQ(snap.gauges.at("test.sampled"), 42);
  EXPECT_EQ(snap.histograms.at("test.latency_ns").count, 1u);
}

TEST_F(Registries, JsonRoundTripsAndIsDeterministic) {
  Registry registry;
  registry.counter("alpha.count").inc(5);
  registry.gauge("beta.depth").set(9);
  Histogram& hist = registry.histogram("gamma.latency_ns");
  hist.record(100);
  hist.record(200);

  const Snapshot snap = registry.snapshot();
  const std::string json = to_json(snap);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha.count\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"beta.depth\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"gamma.latency_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"sum\": 300"), std::string::npos);
  EXPECT_NE(json.find("\"max\": 200"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  // Same snapshot -> bit-identical export; fresh snapshot of unchanged
  // metrics -> same document.
  EXPECT_EQ(json, to_json(snap));
  EXPECT_EQ(json, to_json(registry.snapshot()));

  const std::string table = render_table(snap);
  EXPECT_NE(table.find("alpha.count"), std::string::npos);
  EXPECT_NE(table.find("gamma.latency_ns"), std::string::npos);
}

TEST_F(Registries, BindsThreadPoolStats) {
  Registry registry;
  util::ThreadPool pool(2);
  bind_thread_pool(registry, pool);
  std::atomic<int> ran{0};
  pool.parallel_for(64, [&](std::size_t) { ran.fetch_add(1); });
  const Snapshot snap = registry.snapshot();
  EXPECT_EQ(ran.load(), 64);
  ASSERT_TRUE(snap.gauges.contains("pool.tasks_submitted"));
  ASSERT_TRUE(snap.gauges.contains("pool.tasks_executed"));
  ASSERT_TRUE(snap.gauges.contains("pool.steals"));
  ASSERT_TRUE(snap.gauges.contains("pool.queue_wait_ns"));
  EXPECT_GE(snap.gauges.at("pool.tasks_submitted"),
            snap.gauges.at("pool.tasks_executed"));
}

TEST_F(Flushers, FlushesPeriodically) {
  Registry registry;
  registry.counter("flush.test").inc();
  std::atomic<std::uint64_t> seen{0};
  PeriodicFlusher flusher(registry, std::chrono::milliseconds(5),
                          [&](const Snapshot& snap) {
                            EXPECT_EQ(snap.counters.at("flush.test"), 1u);
                            seen.fetch_add(1);
                          });
  while (flusher.flushes() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  flusher.stop();
  flusher.stop();  // Idempotent.
  EXPECT_EQ(flusher.flushes(), seen.load());
  EXPECT_GE(flusher.flushes(), 2u);  // at least one periodic + the final one
}

TEST_F(Flushers, StopWakesTheSleepingThread) {
  // A period far beyond ctest's timeout: a stop() that waited the period
  // out would hang the test until it is killed, with no timing bound here.
  Registry registry;
  std::atomic<std::uint64_t> seen{0};
  PeriodicFlusher flusher(registry, std::chrono::hours(24),
                          [&](const Snapshot&) { seen.fetch_add(1); });
  flusher.stop();
  EXPECT_EQ(seen.load(), 1u) << "only the final flush ran";
  EXPECT_EQ(flusher.flushes(), seen.load());
}

TEST_F(Flushers, SinkExceptionsAreSwallowed) {
  Registry registry;
  PeriodicFlusher flusher(registry, std::chrono::milliseconds(1),
                          [](const Snapshot&) {
                            throw std::runtime_error("sink down");
                          });
  while (flusher.flushes() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  flusher.stop();  // Thread survived the throwing sink.
  EXPECT_GE(flusher.flushes(), 2u);
}

TEST_F(KillSwitch, DisabledRecordingIsDropped) {
  Counter counter;
  Histogram hist;
  Gauge gauge;
  set_enabled(false);
  EXPECT_FALSE(enabled());
  counter.inc(10);
  hist.record(123);
  gauge.set(5);
  {
    Span span(&hist);
    EXPECT_EQ(Span::depth(), 0u);  // Disabled spans never open.
  }
  set_enabled(true);
  EXPECT_TRUE(enabled());
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(hist.snapshot().count, 0u);
  EXPECT_EQ(gauge.value(), 0);
  counter.inc();  // Re-enabled recording works again.
  EXPECT_EQ(counter.value(), 1u);
}

}  // namespace
}  // namespace sy::obs
