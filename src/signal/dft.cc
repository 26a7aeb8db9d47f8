#include "signal/dft.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace sy::signal {

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::vector<std::complex<double>> dft(std::span<const double> x) {
  const std::size_t n = x.size();
  std::vector<std::complex<double>> out(n);
  if (n == 0) return out;

  // Each twiddle exp(-2*pi*i*j/n) is evaluated once, and bin k reads
  // w[(k*i) mod n]; a product recurrence would drift by ~n ulps instead.
  std::vector<std::complex<double>> w(n);
  for (std::size_t j = 0; j < n; ++j) {
    w[j] = std::polar(1.0, -2.0 * std::numbers::pi * static_cast<double>(j) /
                               static_cast<double>(n));
  }
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc(0.0, 0.0);
    std::size_t idx = 0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += x[i] * w[idx];
      idx += k;
      if (idx >= n) idx -= n;
    }
    out[k] = acc;
  }
  return out;
}

RealFft::RealFft(std::size_t n) : n_(n) {
  if (n < 2 || !is_power_of_two(n)) {
    throw std::invalid_argument("RealFft: size must be a power of two >= 2");
  }
  const std::size_t m = n / 2;

  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < m) ++bits;
  bitrev_.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < bits; ++b) {
      r |= ((j >> b) & 1u) << (bits - 1 - b);
    }
    bitrev_[j] = r;
  }

  // Twiddles are evaluated directly, never by recurrence, so each carries
  // one rounding regardless of n.
  stage_re_.resize(m - 1);
  stage_im_.resize(m - 1);
  for (std::size_t h = 1; h < m; h <<= 1) {
    for (std::size_t j = 0; j < h; ++j) {
      const double angle =
          -std::numbers::pi * static_cast<double>(j) / static_cast<double>(h);
      stage_re_[h - 1 + j] = std::cos(angle);
      stage_im_[h - 1 + j] = std::sin(angle);
    }
  }
  split_re_.resize(m);
  split_im_.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    const double angle = -2.0 * std::numbers::pi * static_cast<double>(k) /
                         static_cast<double>(n);
    split_re_[k] = std::cos(angle);
    split_im_[k] = std::sin(angle);
  }
}

void RealFft::magnitude(std::span<const double> x,
                        std::span<double> out) const {
  if (x.size() != n_ || out.size() != bins()) {
    throw std::invalid_argument("RealFft::magnitude: size mismatch");
  }
  const std::size_t m = n_ / 2;
  std::vector<double> scratch(n_);
  double* re = scratch.data();
  double* im = re + m;

  // Pack z[j] = x[2j] + i*x[2j+1], stored in bit-reversed order.
  for (std::size_t j = 0; j < m; ++j) {
    re[j] = x[2 * bitrev_[j]];
    im[j] = x[2 * bitrev_[j] + 1];
  }

  // Iterative radix-2 stages over split re/im arrays. The span-2 stage's
  // only twiddle is exactly 1, so each of its butterflies is one sum and one
  // difference (n = 2 has no stage at all).
  if (m >= 2) {
    for (std::size_t j = 0; j < m; j += 2) {
      const double ar = re[j], ai = im[j];
      const double br = re[j + 1], bi = im[j + 1];
      re[j] = ar + br;
      im[j] = ai + bi;
      re[j + 1] = ar - br;
      im[j + 1] = ai - bi;
    }
  }
  // Butterflies of span 2h >= 4 read the stage's h twiddles, two butterflies
  // per iteration (h is even). All loads precede the stores, so the pair
  // maps onto one two-lane vector operation per arithmetic step.
  for (std::size_t h = 2; h < m; h <<= 1) {
    const double* wr = stage_re_.data() + (h - 1);
    const double* wi = stage_im_.data() + (h - 1);
    for (std::size_t base = 0; base < m; base += 2 * h) {
      double* ar = re + base;
      double* ai = im + base;
      double* br = ar + h;
      double* bi = ai + h;
      for (std::size_t j = 0; j < h; j += 2) {
        const double ar0 = ar[j], ar1 = ar[j + 1];
        const double ai0 = ai[j], ai1 = ai[j + 1];
        const double br0 = br[j], br1 = br[j + 1];
        const double bi0 = bi[j], bi1 = bi[j + 1];
        const double wr0 = wr[j], wr1 = wr[j + 1];
        const double wi0 = wi[j], wi1 = wi[j + 1];
        const double tr0 = br0 * wr0 - bi0 * wi0;
        const double tr1 = br1 * wr1 - bi1 * wi1;
        const double ti0 = br0 * wi0 + bi0 * wr0;
        const double ti1 = br1 * wi1 + bi1 * wr1;
        br[j] = ar0 - tr0;
        br[j + 1] = ar1 - tr1;
        bi[j] = ai0 - ti0;
        bi[j + 1] = ai1 - ti1;
        ar[j] = ar0 + tr0;
        ar[j + 1] = ar1 + tr1;
        ai[j] = ai0 + ti0;
        ai[j + 1] = ai1 + ti1;
      }
    }
  }

  // Unpack X[k] = E[k] + exp(-2*pi*i*k/n) * O[k], with E and O the spectra
  // of the even and odd samples: E[k] = (Z[k] + conj Z[m-k]) / 2 and
  // O[k] = (Z[k] - conj Z[m-k]) / 2i. Bins 0 and m are real.
  const double inv_n = 1.0 / static_cast<double>(n_);
  const double two_inv_n = 2.0 * inv_n;
  out[0] = std::abs(re[0] + im[0]) * inv_n;
  out[m] = std::abs(re[0] - im[0]) * inv_n;
  for (std::size_t k = 1; k < m; ++k) {
    const std::size_t r = m - k;
    const double er = 0.5 * (re[k] + re[r]);
    const double ei = 0.5 * (im[k] - im[r]);
    const double o_r = 0.5 * (im[k] + im[r]);
    const double o_i = 0.5 * (re[r] - re[k]);
    const double xr = er + split_re_[k] * o_r - split_im_[k] * o_i;
    const double xi = ei + split_re_[k] * o_i + split_im_[k] * o_r;
    out[k] = std::sqrt(xr * xr + xi * xi) * two_inv_n;
  }
}

std::vector<double> magnitude_spectrum(std::span<const double> x) {
  const std::size_t n = x.size();
  if (n == 0) return {};
  const std::size_t half = n / 2;
  std::vector<double> mag(half + 1);
  if (n >= 2 && is_power_of_two(n)) {
    RealFft(n).magnitude(x, mag);
    return mag;
  }
  const auto spec = dft(x);
  for (std::size_t k = 0; k <= half; ++k) {
    double m = std::abs(spec[k]) / static_cast<double>(n);
    const bool is_dc = (k == 0);
    const bool is_nyquist = (n % 2 == 0 && k == half);
    if (!is_dc && !is_nyquist) m *= 2.0;
    mag[k] = m;
  }
  return mag;
}

double bin_frequency(std::size_t k, std::size_t n, double sample_rate_hz) {
  if (n == 0) throw std::invalid_argument("bin_frequency: empty window");
  return sample_rate_hz * static_cast<double>(k) / static_cast<double>(n);
}

}  // namespace sy::signal
