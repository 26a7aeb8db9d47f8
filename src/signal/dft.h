// Discrete Fourier transform of real sensor windows.
//
// The feature extractor needs the one-sided magnitude spectrum of each
// ~50 Hz sensor window (§V-C). By default every window is zero-padded to a
// power of two (FeatureConfig::pad_to_pow2), and power-of-two lengths go
// through RealFft: an immutable plan that packs the n real samples as n/2
// complex points, runs one n/2-point radix-2 FFT over precomputed twiddles,
// and unpacks only bins 0..n/2. dft() is the direct O(n^2) transform. It
// serves every other length and is the oracle RealFft is tested against.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace sy::signal {

// Full complex DFT by the direct O(n^2) sum:
// X[k] = sum_n x[n] exp(-2*pi*i*k*n/N).
std::vector<std::complex<double>> dft(std::span<const double> x);

// Real-input FFT plan for one power-of-two length n >= 2. Construction
// precomputes the bit-reversal order, the per-stage twiddles of the
// n/2-point complex FFT, and the split twiddles exp(-2*pi*i*k/n) that
// separate the packed even/odd halves. magnitude() runs a dedicated span-2
// stage (twiddle 1: one sum and one difference per butterfly), then every
// wider stage two butterflies at a time so the compiler can pair them into
// two-lane vector operations; per element the arithmetic is the textbook
// butterfly, so the pairing changes no result. The plan is never mutated
// after construction, so one instance serves any number of threads.
class RealFft {
 public:
  // Throws std::invalid_argument unless n is a power of two >= 2.
  explicit RealFft(std::size_t n);

  std::size_t size() const { return n_; }
  // One-sided bin count, n/2 + 1.
  std::size_t bins() const { return n_ / 2 + 1; }

  // Writes magnitude_spectrum(x) into `out`: bins 0..n/2, scaled by 1/n,
  // non-DC/non-Nyquist bins doubled. Needs x.size() == size() and
  // out.size() == bins() (std::invalid_argument otherwise). Scratch space is
  // per call.
  void magnitude(std::span<const double> x, std::span<double> out) const;

 private:
  std::size_t n_;
  std::vector<std::size_t> bitrev_;  // n/2 entries
  // Stage twiddles of the n/2-point FFT, stage of span 2h at offset h-1.
  std::vector<double> stage_re_, stage_im_;
  // exp(-2*pi*i*k/n) for k = 0..n/2-1.
  std::vector<double> split_re_, split_im_;
};

// One-sided magnitude spectrum (bins 0..N/2), with the DFT scaled by 1/N and
// non-DC/non-Nyquist bins doubled so a pure sinusoid of amplitude A produces
// a bin value of A. Power-of-two lengths build a RealFft plan; other
// lengths take the direct dft().
std::vector<double> magnitude_spectrum(std::span<const double> x);

// Frequency (Hz) of one-sided-spectrum bin `k` for window length `n`.
double bin_frequency(std::size_t k, std::size_t n, double sample_rate_hz);

bool is_power_of_two(std::size_t n);

}  // namespace sy::signal
