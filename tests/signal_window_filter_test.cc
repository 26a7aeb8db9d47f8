#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "signal/resample.h"
#include "signal/window.h"

namespace sy::signal {
namespace {

TEST(WindowSpec, SampleCounts) {
  WindowSpec spec;
  spec.window_seconds = 6.0;
  spec.hop_seconds = 6.0;
  spec.sample_rate_hz = 50.0;
  EXPECT_EQ(spec.window_samples(), 300u);
  EXPECT_EQ(spec.hop_samples(), 300u);
}

TEST(Segment, NonOverlapping) {
  std::vector<double> xs(1000);
  std::iota(xs.begin(), xs.end(), 0.0);
  WindowSpec spec;
  spec.window_seconds = 6.0;
  spec.hop_seconds = 6.0;
  spec.sample_rate_hz = 50.0;
  const auto windows = segment(xs, spec);
  ASSERT_EQ(windows.size(), 3u);  // 1000 / 300 -> 3 full windows
  EXPECT_DOUBLE_EQ(windows[0].front(), 0.0);
  EXPECT_DOUBLE_EQ(windows[1].front(), 300.0);
  EXPECT_DOUBLE_EQ(windows[2].back(), 899.0);
  EXPECT_EQ(window_count(1000, spec), 3u);
}

TEST(Segment, Sliding) {
  std::vector<double> xs(100);
  std::iota(xs.begin(), xs.end(), 0.0);
  WindowSpec spec;
  spec.window_seconds = 1.0;
  spec.hop_seconds = 0.5;
  spec.sample_rate_hz = 50.0;
  const auto windows = segment(xs, spec);
  ASSERT_EQ(windows.size(), 3u);  // starts at 0, 25, 50
  EXPECT_DOUBLE_EQ(windows[1].front(), 25.0);
}

TEST(Segment, ShortInputYieldsNothing) {
  std::vector<double> xs(10);
  WindowSpec spec;  // 300-sample windows
  EXPECT_TRUE(segment(xs, spec).empty());
  EXPECT_EQ(window_count(10, spec), 0u);
}

TEST(Segment, ZeroWindowThrows) {
  WindowSpec spec;
  spec.window_seconds = 0.0;
  std::vector<double> xs(10);
  EXPECT_THROW((void)segment(xs, spec), std::invalid_argument);
}

TEST(Resample, IdentityOnAlignedSamples) {
  std::vector<TimedSample> samples;
  for (int i = 0; i < 50; ++i) {
    samples.push_back({i * 0.02, static_cast<double>(i)});
  }
  const auto out = linear_resample(samples, 0.0, 50.0, 50);
  EXPECT_EQ(out.gap_ticks, 0u);
  for (int i = 0; i < 50; ++i) EXPECT_NEAR(out.values[i], i, 1e-9);
}

TEST(Resample, InterpolatesBetweenSamples) {
  const std::vector<TimedSample> samples{{0.0, 0.0}, {0.1, 10.0}};
  const auto out = linear_resample(samples, 0.0, 20.0, 3);  // t=0,.05,.1
  EXPECT_NEAR(out.values[0], 0.0, 1e-9);
  EXPECT_NEAR(out.values[1], 5.0, 1e-9);
  EXPECT_NEAR(out.values[2], 10.0, 1e-9);
}

TEST(Resample, GapHoldsLastValue) {
  const std::vector<TimedSample> samples{{0.0, 1.0}, {1.0, 9.0}};
  const auto out = linear_resample(samples, 0.0, 10.0, 10, /*max_gap=*/0.25);
  EXPECT_GT(out.gap_ticks, 0u);
  EXPECT_NEAR(out.values[5], 1.0, 1e-9);  // held, not interpolated
}

TEST(Resample, EmptyInputAllGaps) {
  const auto out = linear_resample({}, 0.0, 50.0, 10);
  EXPECT_EQ(out.gap_ticks, 10u);
  EXPECT_EQ(out.values.size(), 10u);
}

}  // namespace
}  // namespace sy::signal
