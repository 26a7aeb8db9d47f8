#include "features/feature_extractor.h"

#include <algorithm>
#include <stdexcept>

#include "signal/dft.h"
#include "signal/spectrum.h"

namespace sy::features {

const char* feature_name(FeatureId id) {
  switch (id) {
    case FeatureId::kMean:
      return "Mean";
    case FeatureId::kVar:
      return "Var";
    case FeatureId::kMax:
      return "Max";
    case FeatureId::kMin:
      return "Min";
    case FeatureId::kRan:
      return "Ran";
    case FeatureId::kPeak:
      return "Peak";
    case FeatureId::kPeakF:
      return "Peak f";
    case FeatureId::kPeak2:
      return "Peak2";
    case FeatureId::kPeak2F:
      return "Peak2 f";
  }
  return "?";
}

double StreamFeatures::get(FeatureId id) const {
  switch (id) {
    case FeatureId::kMean:
      return mean;
    case FeatureId::kVar:
      return var;
    case FeatureId::kMax:
      return max;
    case FeatureId::kMin:
      return min;
    case FeatureId::kRan:
      return ran;
    case FeatureId::kPeak:
      return peak;
    case FeatureId::kPeakF:
      return peak_f;
    case FeatureId::kPeak2:
      return peak2;
    case FeatureId::kPeak2F:
      return peak2_f;
  }
  return 0.0;
}

FeatureExtractor::FeatureExtractor(FeatureConfig config) : config_(config) {
  if (config_.window.window_samples() == 0) {
    throw std::invalid_argument("FeatureExtractor: empty window");
  }
  const std::size_t n = transform_length(config_.window.window_samples());
  if (n >= 2 && signal::is_power_of_two(n)) fft_.emplace(n);
}

std::size_t FeatureExtractor::transform_length(std::size_t n) const {
  if (!config_.pad_to_pow2 || signal::is_power_of_two(n)) return n;
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

StreamFeatures FeatureExtractor::window_features(
    std::span<const double> window) const {
  StreamFeatures f;
  if (window.empty()) return f;

  // Pass 1, ascending: sum, min and max.
  double sum = 0.0;
  double lo = window[0];
  double hi = window[0];
  for (const double v : window) {
    sum += v;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  // Rounding in the sum can put sum / n just outside [min, max], e.g. for a
  // constant window; the clamp keeps a constant window's mean equal to its
  // value and its variance exactly 0.
  const double n = static_cast<double>(window.size());
  f.mean = std::clamp(sum / n, lo, hi);
  f.max = hi;
  f.min = lo;
  f.ran = hi - lo;

  // Pass 2, ascending: the squared deviations for the population variance,
  // while filling the transform buffer (optionally DC-removed, zero-padded
  // to a power of two).
  const std::size_t padded = transform_length(window.size());
  std::vector<double> buf(padded, 0.0);
  const double dc = config_.remove_dc ? f.mean : 0.0;
  double ss = 0.0;
  for (std::size_t i = 0; i < window.size(); ++i) {
    const double d = window[i] - f.mean;
    ss += d * d;
    buf[i] = window[i] - dc;
  }
  f.var = ss / n;

  std::vector<double> mag;
  if (fft_ && fft_->size() == padded) {
    mag.resize(fft_->bins());
    fft_->magnitude(buf, mag);
  } else {
    mag = signal::magnitude_spectrum(buf);
  }
  auto peaks = signal::find_peaks(mag, padded, config_.window.sample_rate_hz,
                                  config_.peak_guard_hz);
  // Undo the amplitude dilution introduced by zero-padding (the DFT is
  // scaled by 1/padded while the energy came from window.size() samples).
  const double rescale = static_cast<double>(padded) / n;
  f.peak = peaks.peak_amplitude * rescale;
  f.peak_f = peaks.peak_frequency_hz;
  f.peak2 = peaks.peak2_amplitude * rescale;
  f.peak2_f = peaks.peak2_frequency_hz;
  return f;
}

std::vector<StreamFeatures> FeatureExtractor::stream_features(
    std::span<const double> samples) const {
  const std::size_t w = config_.window.window_samples();
  const std::size_t h = config_.window.hop_samples();
  std::vector<StreamFeatures> out;
  if (samples.size() < w) return out;
  out.reserve((samples.size() - w) / h + 1);
  for (std::size_t start = 0; start + w <= samples.size(); start += h) {
    out.push_back(window_features(samples.subspan(start, w)));
  }
  return out;
}

void FeatureExtractor::append_selected(const StreamFeatures& f,
                                       std::vector<double>& out) const {
  for (const FeatureId id : kSelectedFeatures) out.push_back(f.get(id));
}

std::vector<std::vector<double>> FeatureExtractor::auth_vectors(
    const sensors::Recording& phone, const sensors::Recording* watch) const {
  const auto phone_acc = stream_features(phone.accel.magnitude());
  const auto phone_gyr = stream_features(phone.gyro.magnitude());
  std::size_t n = std::min(phone_acc.size(), phone_gyr.size());

  std::vector<StreamFeatures> watch_acc, watch_gyr;
  if (watch != nullptr) {
    watch_acc = stream_features(watch->accel.magnitude());
    watch_gyr = stream_features(watch->gyro.magnitude());
    n = std::min({n, watch_acc.size(), watch_gyr.size()});
  }

  std::vector<std::vector<double>> out;
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::vector<double> v;
    v.reserve(auth_dim(watch != nullptr));
    append_selected(phone_acc[k], v);
    append_selected(phone_gyr[k], v);
    if (watch != nullptr) {
      append_selected(watch_acc[k], v);
      append_selected(watch_gyr[k], v);
    }
    out.push_back(std::move(v));
  }
  return out;
}

std::vector<std::vector<double>> FeatureExtractor::context_vectors(
    const sensors::Recording& phone) const {
  return auth_vectors(phone, nullptr);
}

}  // namespace sy::features
