#include "signal/dft.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "signal/spectrum.h"
#include "util/rng.h"

namespace sy::signal {
namespace {

using std::numbers::pi;

std::vector<double> sinusoid(std::size_t n, double freq_hz, double rate_hz,
                             double amplitude, double phase = 0.0) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = amplitude *
           std::sin(2.0 * pi * freq_hz * static_cast<double>(i) / rate_hz + phase);
  }
  return x;
}

TEST(Dft, DirectPathMatchesBruteForce) {
  util::Rng rng(22);
  const std::size_t n = 60;  // not a power of two
  std::vector<double> x(n);
  for (auto& v : x) v = rng.gaussian();

  const auto out = dft(x);
  for (std::size_t k = 0; k < n; k += 7) {
    std::complex<double> acc{0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
      const double angle = -2.0 * pi * static_cast<double>(k * i) / static_cast<double>(n);
      acc += x[i] * std::complex<double>(std::cos(angle), std::sin(angle));
    }
    EXPECT_NEAR(std::abs(out[k] - acc), 0.0, 1e-7);
  }
}

TEST(Dft, ParsevalHolds) {
  util::Rng rng(23);
  const std::size_t n = 256;
  std::vector<double> x(n);
  for (auto& v : x) v = rng.gaussian();
  double time_energy = 0.0;
  for (const double v : x) time_energy += v * v;
  const auto spec = dft(x);
  double freq_energy = 0.0;
  for (const auto& c : spec) freq_energy += std::norm(c);
  freq_energy /= static_cast<double>(n);
  EXPECT_NEAR(time_energy, freq_energy, 1e-6 * time_energy);
}

TEST(RealFft, RejectsNonPowerOfTwoAndSizeMismatch) {
  for (const std::size_t n : {0u, 1u, 3u, 100u, 300u}) {
    EXPECT_THROW(RealFft{n}, std::invalid_argument) << n;
  }
  const RealFft plan(64);
  EXPECT_EQ(plan.size(), 64u);
  EXPECT_EQ(plan.bins(), 33u);
  std::vector<double> x(64), out(33);
  std::vector<double> short_x(63), short_out(32);
  EXPECT_NO_THROW(plan.magnitude(x, out));
  EXPECT_THROW(plan.magnitude(short_x, out), std::invalid_argument);
  EXPECT_THROW(plan.magnitude(x, short_out), std::invalid_argument);
}

// The one-sided magnitude spectrum through the direct O(n^2) DFT oracle.
std::vector<double> oracle_magnitude(const std::vector<double>& x) {
  const std::size_t n = x.size();
  const auto spec = dft(x);
  std::vector<double> mag(n / 2 + 1);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    const double scale = (k == 0 || k == n / 2) ? 1.0 : 2.0;
    mag[k] = scale * std::abs(spec[k]) / static_cast<double>(n);
  }
  return mag;
}

void expect_matches_oracle(const std::vector<double>& x, const char* label) {
  const auto expected = oracle_magnitude(x);
  const RealFft plan(x.size());
  std::vector<double> got(plan.bins());
  plan.magnitude(x, got);
  ASSERT_EQ(got.size(), expected.size());
  double largest = 0.0;
  for (const double v : expected) largest = std::max(largest, v);
  // Zero for all-zero input, where every bin must be exactly zero.
  const double tol = 1e-12 * largest;
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_LE(std::abs(got[k] - expected[k]), tol)
        << label << " n=" << x.size() << " bin " << k;
  }
  // The free function must take the same plan path.
  EXPECT_EQ(magnitude_spectrum(x), got) << label << " n=" << x.size();
}

class RealFftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RealFftSizes, MatchesDirectDftOnGaussianInput) {
  const std::size_t n = GetParam();
  util::Rng rng(1000 + n);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.gaussian(0.5, 2.0);
  expect_matches_oracle(x, "gaussian");
}

TEST_P(RealFftSizes, MatchesDirectDftOnBinAlignedTones) {
  const std::size_t n = GetParam();
  const double rate = 50.0;
  // One tone at a time, on bins spread from DC to Nyquist inclusive.
  for (std::size_t bin = 0; bin <= n / 2; bin += std::max<std::size_t>(1, n / 16)) {
    const double freq = static_cast<double>(bin) * rate / static_cast<double>(n);
    auto x = sinusoid(n, freq, rate, 1.75, 0.3);
    for (auto& v : x) v += 0.25;
    expect_matches_oracle(x, "tone");
  }
}

TEST_P(RealFftSizes, AllZeroInputGivesZeroSpectrum) {
  const std::vector<double> x(GetParam(), 0.0);
  const RealFft plan(x.size());
  std::vector<double> got(plan.bins(), -1.0);
  plan.magnitude(x, got);
  for (const double v : got) EXPECT_EQ(v, 0.0);
  expect_matches_oracle(x, "zero");
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, RealFftSizes,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256, 512,
                                           1024, 2048));

TEST(MagnitudeSpectrum, PureToneAmplitude) {
  // Bin-aligned tone: amplitude must be recovered exactly.
  const std::size_t n = 256;
  const double rate = 50.0;
  const double freq = 8.0 * rate / static_cast<double>(n);  // bin 8
  const auto x = sinusoid(n, freq, rate, 2.5);
  const auto mag = magnitude_spectrum(x);
  EXPECT_NEAR(mag[8], 2.5, 1e-9);
  // All other bins near zero.
  for (std::size_t k = 0; k < mag.size(); ++k) {
    if (k != 8) {
      EXPECT_LT(mag[k], 1e-9);
    }
  }
}

TEST(MagnitudeSpectrum, DcComponent) {
  std::vector<double> x(64, 3.0);
  const auto mag = magnitude_spectrum(x);
  EXPECT_NEAR(mag[0], 3.0, 1e-12);  // DC not doubled
}

TEST(MagnitudeSpectrum, EmptyInput) {
  EXPECT_TRUE(magnitude_spectrum({}).empty());
}

TEST(BinFrequency, MapsCorrectly) {
  EXPECT_DOUBLE_EQ(bin_frequency(0, 300, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(bin_frequency(6, 300, 50.0), 1.0);
  EXPECT_DOUBLE_EQ(bin_frequency(150, 300, 50.0), 25.0);
}

TEST(SpectralPeaks, FindsMainAndSecondary) {
  const std::size_t n = 512;
  const double rate = 50.0;
  // Main at bin 20 (1.953 Hz) amplitude 2.0; secondary at bin 40, 0.8.
  const double f1 = 20.0 * rate / n;
  const double f2 = 40.0 * rate / n;
  auto x = sinusoid(n, f1, rate, 2.0);
  const auto y = sinusoid(n, f2, rate, 0.8, 0.7);
  for (std::size_t i = 0; i < n; ++i) x[i] += y[i];

  const auto peaks = spectral_peaks(x, rate);
  EXPECT_NEAR(peaks.peak_amplitude, 2.0, 0.05);
  EXPECT_NEAR(peaks.peak_frequency_hz, f1, 1e-9);
  EXPECT_NEAR(peaks.peak2_amplitude, 0.8, 0.05);
  EXPECT_NEAR(peaks.peak2_frequency_hz, f2, 1e-9);
}

TEST(SpectralPeaks, SecondaryExcludesNeighbours) {
  // A single strong tone with leakage: the secondary peak must not be an
  // immediate neighbour bin of the main peak.
  const std::size_t n = 300;  // non-aligned tone -> leakage
  const double rate = 50.0;
  const auto x = sinusoid(n, 1.93, rate, 2.0);
  const auto peaks = spectral_peaks(x, rate);
  const double df = rate / static_cast<double>(n);
  EXPECT_GT(std::abs(peaks.peak2_frequency_hz - peaks.peak_frequency_hz),
            1.5 * df);
}

TEST(SpectralPeaks, HandlesTinyInput) {
  const std::vector<double> x{1.0};
  const auto peaks = spectral_peaks(x, 50.0);
  EXPECT_DOUBLE_EQ(peaks.peak_amplitude, 0.0);
}

// Parseval across sizes for the direct DFT.
class DftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DftSizes, ParsevalAcrossSizes) {
  util::Rng rng(GetParam());
  std::vector<double> x(GetParam());
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  double te = 0.0;
  for (const double v : x) te += v * v;
  const auto spec = dft(x);
  double fe = 0.0;
  for (const auto& c : spec) fe += std::norm(c);
  fe /= static_cast<double>(x.size());
  EXPECT_NEAR(te, fe, 1e-6 * (te + 1.0));
}

INSTANTIATE_TEST_SUITE_P(Sizes, DftSizes,
                         ::testing::Values(2, 3, 16, 50, 64, 100, 150, 256,
                                           300, 512));

}  // namespace
}  // namespace sy::signal
