// Windowed time- and frequency-domain feature extraction (paper §V-C).
//
// For every analysis window of a sensor-magnitude stream we compute the nine
// candidate features of the paper:
//   time domain:      Mean, Var, Max, Min, Ran(ge)
//   frequency domain: Peak (main-frequency amplitude), Peak f (the main
//                     frequency), Peak2 (secondary amplitude), Peak2 f
// The selection study (§V-C, reproduced in features/selection.h) drops Ran
// (redundant with Var/Max) and Peak2 f (uninformative), leaving the 7-element
// per-stream vector of Eq. 2; two sensors give 14 per device (Eq. 3) and the
// phone+watch combination gives 28 (Eq. 4).
#pragma once

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "sensors/types.h"
#include "signal/dft.h"
#include "signal/window.h"

namespace sy::features {

enum class FeatureId : int {
  kMean = 0,
  kVar,
  kMax,
  kMin,
  kRan,
  kPeak,
  kPeakF,
  kPeak2,
  kPeak2F,
};
inline constexpr int kFeatureCount = 9;
inline constexpr std::array<FeatureId, 9> kAllFeatures = {
    FeatureId::kMean, FeatureId::kVar,   FeatureId::kMax,
    FeatureId::kMin,  FeatureId::kRan,   FeatureId::kPeak,
    FeatureId::kPeakF, FeatureId::kPeak2, FeatureId::kPeak2F,
};
// The paper's selected subset (Eq. 2): 4 time + 3 frequency features.
inline constexpr std::array<FeatureId, 7> kSelectedFeatures = {
    FeatureId::kMean, FeatureId::kVar,  FeatureId::kMax,  FeatureId::kMin,
    FeatureId::kPeak, FeatureId::kPeakF, FeatureId::kPeak2,
};
const char* feature_name(FeatureId id);

struct StreamFeatures {
  double mean{0}, var{0}, max{0}, min{0}, ran{0};
  double peak{0}, peak_f{0}, peak2{0}, peak2_f{0};

  double get(FeatureId id) const;
};

struct FeatureConfig {
  signal::WindowSpec window{};     // 6 s non-overlapping at 50 Hz by default
  // Zero-pad each window to the next power of two before the transform, so
  // it runs through the precomputed signal::RealFft plan. Padding also
  // interpolates the spectrum onto a finer bin grid (0.098 Hz instead of
  // 0.167 Hz for the paper's 300-sample window). False takes the direct
  // O(n^2) DFT at the window's own length.
  bool pad_to_pow2{true};
  // Subtract the window mean before the DFT so the gravity DC component
  // does not leak over the low-frequency bins.
  bool remove_dc{true};
  // Guard band (Hz) around the main peak when hunting for the secondary
  // peak; suppresses rectangular-window leakage sidelobes.
  double peak_guard_hz{0.4};
};

class FeatureExtractor {
 public:
  explicit FeatureExtractor(FeatureConfig config = {});

  const FeatureConfig& config() const { return config_; }

  // Features of one already-cut window of magnitude samples. The time
  // domain takes two ascending passes: the first sums the samples and
  // tracks Min/Max, giving Mean = sum / n (clamped into [Min, Max]); the
  // second accumulates the squared deviations from Mean, giving the
  // population variance Var = sum (x - Mean)^2 / n. An empty window yields
  // all-zero features.
  StreamFeatures window_features(std::span<const double> window) const;

  // Segments a full stream and extracts features per window.
  std::vector<StreamFeatures> stream_features(
      std::span<const double> samples) const;

  // --- Vector assembly (Eqs. 1-4) -------------------------------------
  // Authentication feature vectors for one session: one vector per window.
  // 14-dim for phone only; 28-dim when `watch` is non-null (phone features
  // first). Uses accelerometer + gyroscope magnitudes.
  std::vector<std::vector<double>> auth_vectors(
      const sensors::Recording& phone, const sensors::Recording* watch) const;

  // Context feature vectors (Eq. 3): always phone-only, 14-dim — context
  // detection must not depend on the optional watch (§V-E).
  std::vector<std::vector<double>> context_vectors(
      const sensors::Recording& phone) const;

  // Dimensionality of auth_vectors output.
  static std::size_t auth_dim(bool with_watch) { return with_watch ? 28 : 14; }

 private:
  void append_selected(const StreamFeatures& f, std::vector<double>& out) const;

  // Transform length for a window of n samples (n itself, or the next power
  // of two under pad_to_pow2).
  std::size_t transform_length(std::size_t n) const;

  FeatureConfig config_;
  // Read-only plan for the configured window's transform length, shared by
  // every call and thread; empty when that length is not a power of two.
  std::optional<signal::RealFft> fft_;
};

}  // namespace sy::features
