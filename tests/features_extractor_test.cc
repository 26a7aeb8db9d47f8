#include "features/feature_extractor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <thread>

#include "sensors/motion_model.h"
#include "sensors/population.h"
#include "signal/dft.h"
#include "signal/spectrum.h"

namespace sy::features {
namespace {

using std::numbers::pi;

std::vector<double> tone(std::size_t n, double freq, double rate, double amp,
                         double offset) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = offset + amp * std::sin(2.0 * pi * freq * static_cast<double>(i) / rate);
  }
  return x;
}

TEST(FeatureNames, AllDistinct) {
  std::set<std::string> names;
  for (const FeatureId id : kAllFeatures) names.insert(feature_name(id));
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kFeatureCount));
}

TEST(SelectedFeatures, MatchPaperEq2) {
  // 4 time-domain + 3 frequency-domain; Ran and Peak2 f excluded.
  ASSERT_EQ(kSelectedFeatures.size(), 7u);
  for (const FeatureId id : kSelectedFeatures) {
    EXPECT_NE(id, FeatureId::kRan);
    EXPECT_NE(id, FeatureId::kPeak2F);
  }
}

TEST(WindowFeatures, TimeDomainOnKnownTone) {
  FeatureConfig config;
  const FeatureExtractor extractor(config);
  // 300-sample window at 50 Hz: tone at exactly 2 Hz, amplitude 1.5, offset 9.
  const auto window = tone(300, 2.0, 50.0, 1.5, 9.0);
  const auto f = extractor.window_features(window);
  EXPECT_NEAR(f.mean, 9.0, 1e-9);
  EXPECT_NEAR(f.var, 1.5 * 1.5 / 2.0, 1e-6);  // A^2/2 over whole cycles
  // The sampling grid does not hit the exact crest/trough (25 samples per
  // cycle), so max/min are within one sample step of the envelope.
  EXPECT_NEAR(f.max, 10.5, 0.02);
  EXPECT_NEAR(f.min, 7.5, 0.02);
  EXPECT_NEAR(f.ran, 3.0, 0.04);
}

TEST(WindowFeatures, FrequencyDomainOnKnownTone) {
  FeatureConfig config;
  const FeatureExtractor extractor(config);
  const auto window = tone(300, 2.0, 50.0, 1.5, 9.0);
  const auto f = extractor.window_features(window);
  // 2 Hz tone: padded to 512 bins -> resolution 0.0977 Hz.
  EXPECT_NEAR(f.peak_f, 2.0, 0.1);
  EXPECT_NEAR(f.peak, 1.5, 0.25);  // leakage tolerated
  EXPECT_LT(f.peak2, f.peak);      // secondary below main
}

TEST(WindowFeatures, PadVsNoPadAgreeOnBinAlignedTone) {
  FeatureConfig padded;
  padded.pad_to_pow2 = true;
  FeatureConfig direct;
  direct.pad_to_pow2 = false;
  const FeatureExtractor a(padded), b(direct);
  // Tone aligned to both grids: 300 samples, 50 Hz, 1 Hz = bin 6 (300) and
  // close to bin 10.24 (512)... use 2.0833 Hz = bin 12.5? Use 50/300*12=2Hz
  // aligned for direct; padded peak frequency within one padded bin.
  const auto window = tone(300, 2.0, 50.0, 1.0, 0.0);
  const auto fa = a.window_features(window);
  const auto fb = b.window_features(window);
  EXPECT_NEAR(fa.peak_f, fb.peak_f, 0.1);
  EXPECT_NEAR(fa.mean, fb.mean, 1e-12);
  EXPECT_NEAR(fa.var, fb.var, 1e-12);
}

TEST(StreamFeatures, WindowCount) {
  FeatureConfig config;  // 6 s windows, 6 s hop @50 Hz = 300 samples
  const FeatureExtractor extractor(config);
  const auto samples = tone(1000, 2.0, 50.0, 1.0, 0.0);
  const auto features = extractor.stream_features(samples);
  EXPECT_EQ(features.size(), 3u);
}

TEST(AuthVectors, DimensionsMatchEq3AndEq4) {
  util::Rng rng(31);
  const sensors::UserProfile user = sensors::UserProfile::sample(0, rng);
  const auto env =
      sensors::SessionEnvironment::sample(sensors::UsageContext::kMoving, rng);
  sensors::SynthesisOptions options;
  options.duration_seconds = 30.0;
  const auto pair = sensors::synthesize_session(
      user, sensors::UsageContext::kMoving, env, options, rng);

  const FeatureExtractor extractor{FeatureConfig{}};
  const auto phone_only = extractor.auth_vectors(pair.phone, nullptr);
  ASSERT_EQ(phone_only.size(), 5u);  // 30 s / 6 s
  EXPECT_EQ(phone_only[0].size(), 14u);

  const auto combined = extractor.auth_vectors(pair.phone, &pair.watch);
  ASSERT_EQ(combined.size(), 5u);
  EXPECT_EQ(combined[0].size(), 28u);

  // Phone block identical in both assemblies (Eq. 4 concatenation).
  for (std::size_t k = 0; k < combined.size(); ++k) {
    for (std::size_t j = 0; j < 14; ++j) {
      EXPECT_DOUBLE_EQ(combined[k][j], phone_only[k][j]);
    }
  }
  EXPECT_EQ(FeatureExtractor::auth_dim(false), 14u);
  EXPECT_EQ(FeatureExtractor::auth_dim(true), 28u);
}

TEST(ContextVectors, AlwaysPhoneOnly) {
  util::Rng rng(32);
  const sensors::UserProfile user = sensors::UserProfile::sample(0, rng);
  const auto env = sensors::SessionEnvironment::sample(
      sensors::UsageContext::kStationaryUse, rng);
  sensors::SynthesisOptions options;
  options.duration_seconds = 12.0;
  const auto pair = sensors::synthesize_session(
      user, sensors::UsageContext::kStationaryUse, env, options, rng);
  const FeatureExtractor extractor{FeatureConfig{}};
  const auto vectors = extractor.context_vectors(pair.phone);
  ASSERT_EQ(vectors.size(), 2u);
  EXPECT_EQ(vectors[0].size(), 14u);
}

TEST(AuthVectors, SelectedFeatureOrderIsStable) {
  // The vector layout is [acc:mean,var,max,min,peak,peak_f,peak2, gyr:...]
  // per device. Verify the accel-mean slot by construction.
  util::Rng rng(33);
  const sensors::UserProfile user = sensors::UserProfile::sample(0, rng);
  const auto env =
      sensors::SessionEnvironment::sample(sensors::UsageContext::kMoving, rng);
  sensors::SynthesisOptions options;
  options.duration_seconds = 6.0;
  const auto pair = sensors::synthesize_session(
      user, sensors::UsageContext::kMoving, env, options, rng);

  const FeatureExtractor extractor{FeatureConfig{}};
  const auto vectors = extractor.auth_vectors(pair.phone, nullptr);
  ASSERT_EQ(vectors.size(), 1u);
  const auto accel_features =
      extractor.window_features(pair.phone.accel.magnitude());
  EXPECT_DOUBLE_EQ(vectors[0][0], accel_features.mean);
  EXPECT_DOUBLE_EQ(vectors[0][1], accel_features.var);
  EXPECT_DOUBLE_EQ(vectors[0][4], accel_features.peak);
  const auto gyro_features =
      extractor.window_features(pair.phone.gyro.magnitude());
  EXPECT_DOUBLE_EQ(vectors[0][7], gyro_features.mean);
}

TEST(FeatureExtractor, EmptyWindowConfigThrows) {
  FeatureConfig config;
  config.window.window_seconds = 0.0;
  EXPECT_THROW(FeatureExtractor{config}, std::invalid_argument);
}

// 6 s magnitude windows of all four streams (phone and watch, accel and
// gyro) from freshly synthesized sessions in both usage contexts.
std::vector<std::vector<double>> synthesized_windows() {
  std::vector<std::vector<double>> out;
  util::Rng rng(34);
  for (int u = 0; u < 3; ++u) {
    const sensors::UserProfile user = sensors::UserProfile::sample(u, rng);
    for (const auto context : {sensors::UsageContext::kStationaryUse,
                               sensors::UsageContext::kMoving}) {
      const auto env = sensors::SessionEnvironment::sample(context, rng);
      sensors::SynthesisOptions options;
      options.duration_seconds = 6.0;
      const auto pair =
          sensors::synthesize_session(user, context, env, options, rng);
      for (const auto* rec : {&pair.phone, &pair.watch}) {
        out.push_back(rec->accel.magnitude());
        out.push_back(rec->gyro.magnitude());
      }
    }
  }
  return out;
}

// window_features recomputed from its definition: the time domain as two
// ascending passes (sum, min and max with the mean clamped into [min, max],
// then the squared deviations from that mean), the spectrum from the direct
// O(n^2) DFT oracle instead of the FFT plan.
StreamFeatures oracle_window_features(std::span<const double> window,
                                      const FeatureConfig& config) {
  StreamFeatures f;
  double sum = 0.0;
  f.max = window[0];
  f.min = window[0];
  for (std::size_t i = 0; i < window.size(); ++i) {
    sum += window[i];
    f.max = std::max(f.max, window[i]);
    f.min = std::min(f.min, window[i]);
  }
  f.mean = std::clamp(sum / static_cast<double>(window.size()), f.min, f.max);
  double ss = 0.0;
  for (std::size_t i = 0; i < window.size(); ++i) {
    ss += (window[i] - f.mean) * (window[i] - f.mean);
  }
  f.var = ss / static_cast<double>(window.size());
  f.ran = f.max - f.min;

  std::size_t padded = 1;
  while (padded < window.size()) padded <<= 1;
  std::vector<double> buf(padded, 0.0);
  for (std::size_t i = 0; i < window.size(); ++i) buf[i] = window[i] - f.mean;
  const auto spec = signal::dft(buf);
  std::vector<double> mag(padded / 2 + 1);
  for (std::size_t k = 0; k < mag.size(); ++k) {
    const double scale = (k == 0 || k == padded / 2) ? 1.0 : 2.0;
    mag[k] = scale * std::abs(spec[k]) / static_cast<double>(padded);
  }
  const auto peaks = signal::find_peaks(
      mag, padded, config.window.sample_rate_hz, config.peak_guard_hz);
  const double rescale =
      static_cast<double>(padded) / static_cast<double>(window.size());
  f.peak = peaks.peak_amplitude * rescale;
  f.peak_f = peaks.peak_frequency_hz;
  f.peak2 = peaks.peak2_amplitude * rescale;
  f.peak2_f = peaks.peak2_frequency_hz;
  return f;
}

TEST(WindowFeatures, MatchDirectDftOracleOnSynthesizedWindows) {
  const FeatureConfig config;
  const FeatureExtractor extractor(config);
  const auto windows = synthesized_windows();
  ASSERT_EQ(windows.size(), 24u);
  for (std::size_t w = 0; w < windows.size(); ++w) {
    ASSERT_EQ(windows[w].size(), config.window.window_samples());
    const StreamFeatures got = extractor.window_features(windows[w]);
    const StreamFeatures want = oracle_window_features(windows[w], config);
    // Time domain does not touch the transform: bit-equal.
    EXPECT_EQ(got.mean, want.mean) << w;
    EXPECT_EQ(got.var, want.var) << w;
    EXPECT_EQ(got.max, want.max) << w;
    EXPECT_EQ(got.min, want.min) << w;
    EXPECT_EQ(got.ran, want.ran) << w;
    // Same peak bins, so the frequencies are the same doubles.
    EXPECT_EQ(got.peak_f, want.peak_f) << w;
    EXPECT_EQ(got.peak2_f, want.peak2_f) << w;
    EXPECT_GT(want.peak, 0.0) << w;
    EXPECT_LE(std::abs(got.peak - want.peak), 1e-12 * want.peak) << w;
    EXPECT_LE(std::abs(got.peak2 - want.peak2), 1e-12 * want.peak) << w;
  }
}

// Mean and population variance by two ascending passes in long double.
struct LongDoubleMoments {
  long double mean, var;
};
LongDoubleMoments long_double_moments(std::span<const double> window) {
  long double sum = 0.0L;
  for (const double v : window) sum += v;
  const long double n = static_cast<long double>(window.size());
  const long double mean = sum / n;
  long double ss = 0.0L;
  for (const double v : window) ss += (v - mean) * (v - mean);
  return {mean, ss / n};
}

TEST(WindowFeatures, TimeDomainMatchesLongDoubleReference) {
  const FeatureExtractor extractor{FeatureConfig{}};
  const auto windows = synthesized_windows();
  ASSERT_EQ(windows.size(), 24u);
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const StreamFeatures got = extractor.window_features(windows[w]);
    const LongDoubleMoments want = long_double_moments(windows[w]);
    ASSERT_GT(want.var, 0.0L) << w;
    EXPECT_LE(std::abs(static_cast<long double>(got.mean) - want.mean),
              1e-14L * std::abs(want.mean))
        << w;
    EXPECT_LE(std::abs(static_cast<long double>(got.var) - want.var),
              1e-14L * want.var)
        << w;
  }

  // A large offset over a tiny spread: the deviations, not the raw squares,
  // carry the variance, so alternating 1e9 and 1e9 + 1 gives 0.25.
  std::vector<double> offset(300);
  for (std::size_t i = 0; i < offset.size(); ++i) {
    offset[i] = 1e9 + static_cast<double>(i % 2);
  }
  const StreamFeatures big = extractor.window_features(offset);
  EXPECT_NEAR(big.var, 0.25, 1e-6);
  EXPECT_EQ(big.mean, 1e9 + 0.5);

  // 300 * 9.81 does not sum exactly, yet a constant window keeps its value
  // as the mean and has no spread at all.
  const std::vector<double> constant(300, 9.81);
  const StreamFeatures flat = extractor.window_features(constant);
  EXPECT_EQ(flat.mean, 9.81);
  EXPECT_EQ(flat.var, 0.0);
  EXPECT_EQ(flat.ran, 0.0);
}

TEST(WindowFeatures, EmptyWindowIsAllZero) {
  const FeatureExtractor extractor{FeatureConfig{}};
  const StreamFeatures f = extractor.window_features({});
  for (const FeatureId id : kAllFeatures) {
    EXPECT_EQ(f.get(id), 0.0) << feature_name(id);
  }
}

TEST(FeatureExtractor, SharedAcrossThreadsIsBitIdentical) {
  const FeatureExtractor extractor{FeatureConfig{}};
  const auto windows = synthesized_windows();
  std::vector<StreamFeatures> expected;
  for (const auto& w : windows) expected.push_back(extractor.window_features(w));

  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  std::vector<std::vector<StreamFeatures>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        // Each thread walks the windows from a different offset so calls on
        // the same window and on different windows overlap.
        for (std::size_t i = 0; i < windows.size(); ++i) {
          const std::size_t w = (i + static_cast<std::size_t>(t) * 5) %
                                windows.size();
          got[t].push_back(extractor.window_features(windows[w]));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), windows.size() * kRounds);
    for (std::size_t c = 0; c < got[t].size(); ++c) {
      const std::size_t w =
          (c % windows.size() + static_cast<std::size_t>(t) * 5) %
          windows.size();
      EXPECT_EQ(std::memcmp(&got[t][c], &expected[w], sizeof(StreamFeatures)),
                0)
          << "thread " << t << " call " << c;
    }
  }
}

TEST(StreamFeatures, GetCoversAllIds) {
  StreamFeatures f;
  f.mean = 1;
  f.var = 2;
  f.max = 3;
  f.min = 4;
  f.ran = 5;
  f.peak = 6;
  f.peak_f = 7;
  f.peak2 = 8;
  f.peak2_f = 9;
  double expected = 1.0;
  for (const FeatureId id : kAllFeatures) {
    EXPECT_DOUBLE_EQ(f.get(id), expected);
    expected += 1.0;
  }
}

}  // namespace
}  // namespace sy::features
