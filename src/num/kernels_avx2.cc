// AVX2 + FMA kernels, selected at runtime (function-level target attributes,
// so this translation unit builds without -mavx2 and plain x86-64 binaries
// stay portable). Reductions use lane-parallel partial sums and fused
// multiply-add, so results differ from the scalar reference in the last
// bits; the contract is 1e-12 relative agreement (tests/num_kernels_test).
//
// exp is vectorized with the classic Cephes expm approach: round x/ln2 to an
// integer n, reduce with the split ln2 = C1 + C2, evaluate a degree-(2,3)
// rational in the reduced argument, and scale by 2^n in two halves so the
// underflow tail degrades gracefully into denormals instead of snapping to
// zero. Accuracy is ~1 ulp for normal results — far inside the 1e-12 budget.
#include "num/kernels.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define SY_NUM_HAVE_AVX2 1
#include <immintrin.h>
#else
#define SY_NUM_HAVE_AVX2 0
#endif

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.h"

namespace sy::num::avx2 {

#if SY_NUM_HAVE_AVX2

#define SY_AVX2 __attribute__((target("avx2,fma")))

bool available() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

namespace {

SY_AVX2 inline double hsum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d sum2 = _mm_add_pd(lo, hi);
  const __m128d swapped = _mm_unpackhi_pd(sum2, sum2);
  return _mm_cvtsd_f64(_mm_add_sd(sum2, swapped));
}

// 2^e for integer-valued e lanes in [-1022, 1023], built in the exponent
// field. Out-of-range lanes are the callers' problem (exp4 splits its
// scaling in halves precisely so each half stays in range).
SY_AVX2 inline __m256d pow2i(__m256d e) {
  const __m128i e32 = _mm256_cvtpd_epi32(e);
  const __m256i e64 = _mm256_cvtepi32_epi64(e32);
  const __m256i bits =
      _mm256_slli_epi64(_mm256_add_epi64(e64, _mm256_set1_epi64x(1023)), 52);
  return _mm256_castsi256_pd(bits);
}

// Cephes exp() constants (double precision).
constexpr double kLog2E = 1.4426950408889634073599;
constexpr double kC1 = 6.93145751953125e-1;
constexpr double kC2 = 1.42860682030941723212e-6;
constexpr double kP0 = 1.26177193074810590878e-4;
constexpr double kP1 = 3.02994407707441961300e-2;
constexpr double kP2 = 9.99999999999999999910e-1;
constexpr double kQ0 = 3.00198505138664455042e-6;
constexpr double kQ1 = 2.52448340349684104192e-3;
constexpr double kQ2 = 2.27265548208155028766e-1;
constexpr double kQ3 = 2.00000000000000000005e0;
// Clamp bounds: beyond these exp saturates to inf / rounds to zero anyway.
constexpr double kMaxArg = 709.78271289338397;
constexpr double kMinArg = -745.13321910194122;

SY_AVX2 inline __m256d exp_pd(__m256d x) {
  // The clamp would silently absorb out-of-range and NaN lanes; remember
  // the raw input and patch those lanes at the end: above kMaxArg the true
  // exp overflows to +inf, below kMinArg it underflows to +0 (std::exp may
  // still return the last denormal in a sliver below the cutoff — inside
  // the documented absolute floor), and NaN propagates like std::exp.
  const __m256d input = x;
  const __m256d nan_lanes = _mm256_cmp_pd(x, x, _CMP_UNORD_Q);
  x = _mm256_min_pd(x, _mm256_set1_pd(kMaxArg));
  x = _mm256_max_pd(x, _mm256_set1_pd(kMinArg));

  // n = round(x / ln2); reduce with the split ln2 so r is exact-ish.
  const __m256d n = _mm256_round_pd(
      _mm256_mul_pd(x, _mm256_set1_pd(kLog2E)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256d r = _mm256_fnmadd_pd(n, _mm256_set1_pd(kC1), x);
  r = _mm256_fnmadd_pd(n, _mm256_set1_pd(kC2), r);

  // Rational approximation: exp(r) = 1 + 2 r P(r^2) / (Q(r^2) - r P(r^2)).
  const __m256d rr = _mm256_mul_pd(r, r);
  __m256d p = _mm256_set1_pd(kP0);
  p = _mm256_fmadd_pd(p, rr, _mm256_set1_pd(kP1));
  p = _mm256_fmadd_pd(p, rr, _mm256_set1_pd(kP2));
  p = _mm256_mul_pd(p, r);
  __m256d q = _mm256_set1_pd(kQ0);
  q = _mm256_fmadd_pd(q, rr, _mm256_set1_pd(kQ1));
  q = _mm256_fmadd_pd(q, rr, _mm256_set1_pd(kQ2));
  q = _mm256_fmadd_pd(q, rr, _mm256_set1_pd(kQ3));
  const __m256d e =
      _mm256_fmadd_pd(_mm256_set1_pd(2.0),
                      _mm256_div_pd(p, _mm256_sub_pd(q, p)),
                      _mm256_set1_pd(1.0));

  // Scale by 2^n in two halves: each half stays inside the normal exponent
  // range, and the final multiply may round into a denormal when n < -1022.
  const __m256d n1 = _mm256_round_pd(
      _mm256_mul_pd(n, _mm256_set1_pd(0.5)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256d n2 = _mm256_sub_pd(n, n1);
  __m256d result = _mm256_mul_pd(_mm256_mul_pd(e, pow2i(n1)), pow2i(n2));
  // Ordered compares are false on NaN lanes, so the order here matters:
  // overflow, underflow, then NaN restoration.
  result = _mm256_blendv_pd(
      result, _mm256_set1_pd(std::numeric_limits<double>::infinity()),
      _mm256_cmp_pd(input, _mm256_set1_pd(kMaxArg), _CMP_GT_OQ));
  result = _mm256_blendv_pd(
      result, _mm256_setzero_pd(),
      _mm256_cmp_pd(input, _mm256_set1_pd(kMinArg), _CMP_LT_OQ));
  return _mm256_blendv_pd(result, input, nan_lanes);
}

}  // namespace

SY_AVX2 void exp4(const double* x, double* out) {
  _mm256_storeu_pd(out, exp_pd(_mm256_loadu_pd(x)));
}

SY_AVX2 double dot(std::span<const double> a, std::span<const double> b) {
  SY_ASSERT(a.size() == b.size(), "num::dot: size mismatch");
  const std::size_t n = a.size();
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a.data() + i),
                           _mm256_loadu_pd(b.data() + i), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a.data() + i + 4),
                           _mm256_loadu_pd(b.data() + i + 4), acc1);
  }
  if (i + 4 <= n) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a.data() + i),
                           _mm256_loadu_pd(b.data() + i), acc0);
    i += 4;
  }
  double acc = hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

SY_AVX2 double squared_distance(std::span<const double> a,
                                std::span<const double> b) {
  SY_ASSERT(a.size() == b.size(), "num::squared_distance: size mismatch");
  const std::size_t n = a.size();
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(a.data() + i),
                                     _mm256_loadu_pd(b.data() + i));
    const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(a.data() + i + 4),
                                     _mm256_loadu_pd(b.data() + i + 4));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  if (i + 4 <= n) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(a.data() + i),
                                    _mm256_loadu_pd(b.data() + i));
    acc0 = _mm256_fmadd_pd(d, d, acc0);
    i += 4;
  }
  double acc = hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

SY_AVX2 double dot_sub(double init, std::span<const double> a,
                       std::span<const double> b) {
  return init - dot(a, b);
}

namespace {

// Lane mask selecting the low `count` of four lanes (count in [0, 4]).
SY_AVX2 inline __m256i lane_mask(std::size_t count) {
  return _mm256_cmpgt_epi64(
      _mm256_set1_epi64x(static_cast<long long>(count)),
      _mm256_setr_epi64x(0, 1, 2, 3));
}

// Rows-in-lanes forward solve of G consecutive pack groups (two ymm halves
// each) against L11: entry (i, j) is b(i, j) minus x(i, k) * l11(j, k) for
// k ascending, one fnmadd each, then one division by l11(j, j) — whatever
// lane or pass it lands in.
template <int G>
SY_AVX2 inline void solve_groups(double* t, std::size_t nb, const double* l11,
                                 std::size_t stride) {
  const std::size_t gs = 8 * nb;
  for (std::size_t j = 0; j < nb; ++j) {
    const double* lj = l11 + j * stride;
    __m256d x[2 * G];
#pragma GCC unroll 8
    for (int q = 0; q < 2 * G; ++q) {
      x[q] = _mm256_load_pd(t + (q / 2) * gs + 8 * j + (q % 2) * 4);
    }
    for (std::size_t k = 0; k < j; ++k) {
      const __m256d ljk = _mm256_broadcast_sd(lj + k);
#pragma GCC unroll 8
      for (int q = 0; q < 2 * G; ++q) {
        x[q] = _mm256_fnmadd_pd(
            _mm256_load_pd(t + (q / 2) * gs + 8 * k + (q % 2) * 4), ljk, x[q]);
      }
    }
    const __m256d d = _mm256_broadcast_sd(lj + j);
#pragma GCC unroll 8
    for (int q = 0; q < 2 * G; ++q) {
      _mm256_store_pd(t + (q / 2) * gs + 8 * j + (q % 2) * 4,
                      _mm256_div_pd(x[q], d));
    }
  }
}

// Trailing-update micro-kernel: rows [i0, i0 + R) across columns
// [c0, min(c1, i0 + R)), one R x 8 block (one packed column group, two ymm
// halves, 2R accumulators) at a time. Lane masks keep row i to columns
// [j0, min(c1, i + 1)): nothing above the diagonal or past c1 is loaded or
// stored. Each lane is one fnmadd chain in ascending k, so an entry's bits
// never depend on the block it lands in.
template <int R>
SY_AVX2 inline void update_row_block(double* a, std::size_t stride,
                                     std::size_t p0, std::size_t p1,
                                     const double* pack, std::size_t i0,
                                     std::size_t c0, std::size_t c1) {
  const std::size_t nb = p1 - p0;
  const double* l = a + i0 * stride + p0;  // row i0's panel slice
  const std::size_t jend = std::min(c1, i0 + R);
  for (std::size_t j0 = c0; j0 < jend; j0 += 8) {
    double* c = a + i0 * stride + j0;
    const double* b = pack + (j0 - p1) / 8 * 8 * nb;
    __m256i m0[R];
    __m256i m1[R];
    __m256d acc0[R];
    __m256d acc1[R];
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const std::size_t end = std::min(c1, i0 + r + 1);
      const std::size_t valid =
          end > j0 ? std::min<std::size_t>(end - j0, 8) : 0;
      m0[r] = lane_mask(std::min<std::size_t>(valid, 4));
      m1[r] = lane_mask(valid > 4 ? valid - 4 : 0);
      acc0[r] = _mm256_maskload_pd(c + r * stride, m0[r]);
      acc1[r] = _mm256_maskload_pd(c + r * stride + 4, m1[r]);
    }
    for (std::size_t k = 0; k < nb; ++k) {
      const __m256d bk0 = _mm256_load_pd(b + 8 * k);
      const __m256d bk1 = _mm256_load_pd(b + 8 * k + 4);
#pragma GCC unroll 8
      for (int r = 0; r < R; ++r) {
        const __m256d lik = _mm256_broadcast_sd(l + r * stride + k);
        acc0[r] = _mm256_fnmadd_pd(lik, bk0, acc0[r]);
        acc1[r] = _mm256_fnmadd_pd(lik, bk1, acc1[r]);
      }
    }
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      _mm256_maskstore_pd(c + r * stride, m0[r], acc0[r]);
      _mm256_maskstore_pd(c + r * stride + 4, m1[r], acc1[r]);
    }
  }
}

}  // namespace

SY_AVX2 void cholesky_panel_solve(double* pack, std::size_t groups,
                                  std::size_t nb, const double* l11,
                                  std::size_t stride) {
  // Four groups (32 rows: eight independent fnmadd chains per column) per
  // pass, then the remainder.
  const std::size_t gs = 8 * nb;
  std::size_t g = 0;
  for (; g + 4 <= groups; g += 4) {
    solve_groups<4>(pack + g * gs, nb, l11, stride);
  }
  if (g < groups) solve_groups<2>(pack + g * gs, nb, l11, stride);  // even
}

SY_AVX2 void cholesky_update(double* a, std::size_t stride, std::size_t p0,
                             std::size_t p1, const double* pack,
                             std::size_t r0, std::size_t r1, std::size_t c0,
                             std::size_t c1) {
  // Row blocks outermost: the block's four panel rows (4 * nb doubles)
  // stay in L1 and its four output rows stream left to right, while the
  // pack (L2-resident) supplies one 8-column group per block.
  std::size_t i = r0;
  for (; i + 4 <= r1; i += 4) {
    update_row_block<4>(a, stride, p0, p1, pack, i, c0, c1);
  }
  for (; i < r1; ++i) update_row_block<1>(a, stride, p0, p1, pack, i, c0, c1);
}

SY_AVX2 void axpy(double alpha, std::span<const double> x,
                  std::span<double> y) {
  SY_ASSERT(x.size() == y.size(), "num::axpy: size mismatch");
  const std::size_t n = x.size();
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d yi = _mm256_loadu_pd(y.data() + i);
    _mm256_storeu_pd(y.data() + i,
                     _mm256_fmadd_pd(va, _mm256_loadu_pd(x.data() + i), yi));
  }
  // Remainder lanes use scalar fma so an element's result does not depend
  // on which side of the vector boundary it landed — accumulating a batch
  // column is then bit-identical whatever the batch width.
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

namespace {

// Per-row squared distance with a fixed, position-independent reduction
// shape: one fmadd chain over 4-wide steps, horizontal sum, then a scalar
// fma tail. The quad path below interleaves four of exactly these chains
// (lanewise-identical ops), so a row's bits never depend on which group of
// a batch it landed in — the batch-vs-single bit-equality contract above
// num:: relies on that.
SY_AVX2 inline double rbf_sqdist_one(const double* row, const double* center,
                                     std::size_t dim) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(row + i),
                                    _mm256_loadu_pd(center + i));
    acc = _mm256_fmadd_pd(d, d, acc);
  }
  double s = hsum(acc);
  for (; i < dim; ++i) {
    const double d = row[i] - center[i];
    s = std::fma(d, d, s);
  }
  return s;
}

}  // namespace

SY_AVX2 void rbf_row_kernel(const double* rows, std::size_t n_rows,
                            std::size_t stride, const double* center,
                            std::size_t dim, double gamma, double* out) {
  double args[4];
  double vals[4];
  std::size_t r = 0;
  // Quad path: four independent accumulator chains hide the fmadd latency,
  // and the four exps run as one vector call.
  for (; r + 4 <= n_rows; r += 4) {
    const double* r0 = rows + r * stride;
    const double* r1 = r0 + stride;
    const double* r2 = r1 + stride;
    const double* r3 = r2 + stride;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= dim; i += 4) {
      const __m256d c = _mm256_loadu_pd(center + i);
      const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(r0 + i), c);
      const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(r1 + i), c);
      const __m256d d2 = _mm256_sub_pd(_mm256_loadu_pd(r2 + i), c);
      const __m256d d3 = _mm256_sub_pd(_mm256_loadu_pd(r3 + i), c);
      a0 = _mm256_fmadd_pd(d0, d0, a0);
      a1 = _mm256_fmadd_pd(d1, d1, a1);
      a2 = _mm256_fmadd_pd(d2, d2, a2);
      a3 = _mm256_fmadd_pd(d3, d3, a3);
    }
    args[0] = hsum(a0);
    args[1] = hsum(a1);
    args[2] = hsum(a2);
    args[3] = hsum(a3);
    for (; i < dim; ++i) {
      const double c = center[i];
      const double d0 = r0[i] - c;
      const double d1 = r1[i] - c;
      const double d2 = r2[i] - c;
      const double d3 = r3[i] - c;
      args[0] = std::fma(d0, d0, args[0]);
      args[1] = std::fma(d1, d1, args[1]);
      args[2] = std::fma(d2, d2, args[2]);
      args[3] = std::fma(d3, d3, args[3]);
    }
    for (double& a : args) a *= -gamma;
    exp4(args, out + r);
  }
  // Remainder rows: one lane each of the same chain shape, exp padded.
  if (r < n_rows) {
    const std::size_t group = n_rows - r;
    for (std::size_t g = 0; g < group; ++g) {
      args[g] = -gamma * rbf_sqdist_one(rows + (r + g) * stride, center, dim);
    }
    for (std::size_t g = group; g < 4; ++g) args[g] = 0.0;
    exp4(args, vals);
    for (std::size_t g = 0; g < group; ++g) out[r + g] = vals[g];
  }
}

namespace {

// Cephes sin/cos constants (double precision): pi/4 split into three parts
// for extended-precision argument reduction, plus the sin/cos polynomial
// coefficients over the reduced octant argument.
constexpr double kDP1 = 7.85398125648498535156e-1;
constexpr double kDP2 = 3.77489470793079817668e-8;
constexpr double kDP3 = 2.69515142907905952645e-15;
constexpr double kFourOverPi = 1.2732395447351626862;
constexpr double kSin0 = 1.58962301576546568060e-10;
constexpr double kSin1 = -2.50507477628578072866e-8;
constexpr double kSin2 = 2.75573136213857245213e-6;
constexpr double kSin3 = -1.98412698295895385996e-4;
constexpr double kSin4 = 8.33333333332211858878e-3;
constexpr double kSin5 = -1.66666666666666307295e-1;
constexpr double kCos0 = -1.13585365213876817300e-11;
constexpr double kCos1 = 2.08757008419747316778e-9;
constexpr double kCos2 = -2.75573141792967388112e-7;
constexpr double kCos3 = 2.48015872888517179954e-5;
constexpr double kCos4 = -1.38888888888730564116e-3;
constexpr double kCos5 = 4.16666666666665929218e-2;
// Fast-path bound: the octant index must fit the epi32 conversion
// (|x| * 4/pi < 2^31). Lanes beyond it (or NaN) take the libm fallback.
constexpr double kMaxSincosArg = 1073741824.0;  // 2^30

// Branch-free Cephes sincos on 4 lanes. Both polynomials are evaluated and
// swapped per the pi/4 octant (sin and cos share the reduction), with the
// classic sign rules: sin flips for x < 0 and octant > 3; cos flips for
// octant > 3 and again for octant > 1.
SY_AVX2 inline void sincos_pd(__m256d x, __m256d* s_out, __m256d* c_out) {
  const __m256d sign_bit = _mm256_set1_pd(-0.0);
  __m256d sin_sign = _mm256_and_pd(x, sign_bit);
  x = _mm256_andnot_pd(sign_bit, x);  // |x|

  // Octant: j = floor(x * 4/pi), forced even (y tracks j as a double).
  __m256d y = _mm256_floor_pd(_mm256_mul_pd(x, _mm256_set1_pd(kFourOverPi)));
  __m256i j = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(y));
  const __m256i odd = _mm256_and_si256(j, _mm256_set1_epi64x(1));
  j = _mm256_add_epi64(j, odd);
  const __m256d odd_mask = _mm256_castsi256_pd(
      _mm256_cmpeq_epi64(odd, _mm256_set1_epi64x(1)));
  y = _mm256_add_pd(y, _mm256_and_pd(odd_mask, _mm256_set1_pd(1.0)));
  j = _mm256_and_si256(j, _mm256_set1_epi64x(7));

  // Map octants 4..7 onto 0..3 with a sign flip on both results.
  const __m256i gt3 = _mm256_cmpgt_epi64(j, _mm256_set1_epi64x(3));
  j = _mm256_sub_epi64(j, _mm256_and_si256(gt3, _mm256_set1_epi64x(4)));
  const __m256d gt3_sign =
      _mm256_and_pd(_mm256_castsi256_pd(gt3), sign_bit);
  sin_sign = _mm256_xor_pd(sin_sign, gt3_sign);
  __m256d cos_sign = gt3_sign;
  const __m256i gt1 = _mm256_cmpgt_epi64(j, _mm256_set1_epi64x(1));
  cos_sign = _mm256_xor_pd(
      cos_sign, _mm256_and_pd(_mm256_castsi256_pd(gt1), sign_bit));

  // Extended-precision reduction: z = ((x - y*DP1) - y*DP2) - y*DP3.
  __m256d z = _mm256_fnmadd_pd(y, _mm256_set1_pd(kDP1), x);
  z = _mm256_fnmadd_pd(y, _mm256_set1_pd(kDP2), z);
  z = _mm256_fnmadd_pd(y, _mm256_set1_pd(kDP3), z);
  const __m256d zz = _mm256_mul_pd(z, z);

  // sin(z) = z + z * zz * P_sin(zz)
  __m256d ps = _mm256_set1_pd(kSin0);
  ps = _mm256_fmadd_pd(ps, zz, _mm256_set1_pd(kSin1));
  ps = _mm256_fmadd_pd(ps, zz, _mm256_set1_pd(kSin2));
  ps = _mm256_fmadd_pd(ps, zz, _mm256_set1_pd(kSin3));
  ps = _mm256_fmadd_pd(ps, zz, _mm256_set1_pd(kSin4));
  ps = _mm256_fmadd_pd(ps, zz, _mm256_set1_pd(kSin5));
  ps = _mm256_fmadd_pd(_mm256_mul_pd(ps, zz), z, z);
  // cos(z) = 1 - zz/2 + zz * zz * P_cos(zz)
  __m256d pc = _mm256_set1_pd(kCos0);
  pc = _mm256_fmadd_pd(pc, zz, _mm256_set1_pd(kCos1));
  pc = _mm256_fmadd_pd(pc, zz, _mm256_set1_pd(kCos2));
  pc = _mm256_fmadd_pd(pc, zz, _mm256_set1_pd(kCos3));
  pc = _mm256_fmadd_pd(pc, zz, _mm256_set1_pd(kCos4));
  pc = _mm256_fmadd_pd(pc, zz, _mm256_set1_pd(kCos5));
  pc = _mm256_mul_pd(pc, _mm256_mul_pd(zz, zz));
  pc = _mm256_add_pd(pc, _mm256_fnmadd_pd(zz, _mm256_set1_pd(0.5),
                                          _mm256_set1_pd(1.0)));

  // Octants 1 and 2 swap which polynomial feeds which result.
  const __m256d swap = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_cmpeq_epi64(j, _mm256_set1_epi64x(1)),
      _mm256_cmpeq_epi64(j, _mm256_set1_epi64x(2))));
  const __m256d sin_val = _mm256_blendv_pd(ps, pc, swap);
  const __m256d cos_val = _mm256_blendv_pd(pc, ps, swap);
  *s_out = _mm256_xor_pd(sin_val, sin_sign);
  *c_out = _mm256_xor_pd(cos_val, cos_sign);
}

// Single-frequency phase with the same reduction shape as one lane of the
// quad loop in rff_transform_row (4-wide fmadd chain, hsum, scalar-fma
// tail), so a frequency's phase never depends on its group position.
SY_AVX2 inline double rff_phase_one(const double* w, const double* x,
                                    std::size_t dim) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    acc = _mm256_fmadd_pd(_mm256_loadu_pd(w + i), _mm256_loadu_pd(x + i), acc);
  }
  double s = hsum(acc);
  for (; i < dim; ++i) s = std::fma(w[i], x[i], s);
  return s;
}

}  // namespace

SY_AVX2 void sincos4(const double* x, double* sin_out, double* cos_out) {
  bool fast = true;
  for (int i = 0; i < 4; ++i) {
    if (!(std::abs(x[i]) < kMaxSincosArg)) fast = false;  // catches NaN too
  }
  if (fast) {
    __m256d s;
    __m256d c;
    sincos_pd(_mm256_loadu_pd(x), &s, &c);
    _mm256_storeu_pd(sin_out, s);
    _mm256_storeu_pd(cos_out, c);
    return;
  }
  // Out-of-range or NaN lanes: the octant index would not survive the epi32
  // conversion, so fall back to libm for the whole group (cold path).
  for (int i = 0; i < 4; ++i) {
    sin_out[i] = std::sin(x[i]);
    cos_out[i] = std::cos(x[i]);
  }
}

SY_AVX2 void rff_transform_row(const double* freqs, std::size_t n_freq,
                               std::size_t stride, const double* x,
                               std::size_t dim, double scale, double* out) {
  double phases[4];
  double sins[4];
  double coss[4];
  std::size_t r = 0;
  // Quad path: four independent phase chains hide the fmadd latency, and
  // the four sincos evaluations run as one vector call.
  for (; r + 4 <= n_freq; r += 4) {
    const double* w0 = freqs + r * stride;
    const double* w1 = w0 + stride;
    const double* w2 = w1 + stride;
    const double* w3 = w2 + stride;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= dim; i += 4) {
      const __m256d xi = _mm256_loadu_pd(x + i);
      a0 = _mm256_fmadd_pd(_mm256_loadu_pd(w0 + i), xi, a0);
      a1 = _mm256_fmadd_pd(_mm256_loadu_pd(w1 + i), xi, a1);
      a2 = _mm256_fmadd_pd(_mm256_loadu_pd(w2 + i), xi, a2);
      a3 = _mm256_fmadd_pd(_mm256_loadu_pd(w3 + i), xi, a3);
    }
    phases[0] = hsum(a0);
    phases[1] = hsum(a1);
    phases[2] = hsum(a2);
    phases[3] = hsum(a3);
    for (; i < dim; ++i) {
      const double xi = x[i];
      phases[0] = std::fma(w0[i], xi, phases[0]);
      phases[1] = std::fma(w1[i], xi, phases[1]);
      phases[2] = std::fma(w2[i], xi, phases[2]);
      phases[3] = std::fma(w3[i], xi, phases[3]);
    }
    sincos4(phases, sins, coss);
    for (std::size_t g = 0; g < 4; ++g) {
      out[2 * (r + g)] = scale * coss[g];
      out[2 * (r + g) + 1] = scale * sins[g];
    }
  }
  // Remainder frequencies: one lane each of the same chain shape.
  if (r < n_freq) {
    const std::size_t group = n_freq - r;
    for (std::size_t g = 0; g < group; ++g) {
      phases[g] = rff_phase_one(freqs + (r + g) * stride, x, dim);
    }
    for (std::size_t g = group; g < 4; ++g) phases[g] = 0.0;
    sincos4(phases, sins, coss);
    for (std::size_t g = 0; g < group; ++g) {
      out[2 * (r + g)] = scale * coss[g];
      out[2 * (r + g) + 1] = scale * sins[g];
    }
  }
}

#undef SY_AVX2

#else  // !SY_NUM_HAVE_AVX2: forward to scalar so callers can link anywhere.

bool available() { return false; }

void exp4(const double* x, double* out) {
  for (int i = 0; i < 4; ++i) out[i] = std::exp(x[i]);
}

double dot(std::span<const double> a, std::span<const double> b) {
  return scalar::dot(a, b);
}

double squared_distance(std::span<const double> a,
                        std::span<const double> b) {
  return scalar::squared_distance(a, b);
}

double dot_sub(double init, std::span<const double> a,
               std::span<const double> b) {
  return scalar::dot_sub(init, a, b);
}

// Never dispatched: the avx2 backend is unavailable in this build.
void cholesky_panel_solve(double*, std::size_t, std::size_t, const double*,
                          std::size_t) {
  SY_ASSERT(false, "num::avx2::cholesky_panel_solve: not compiled in");
}

void cholesky_update(double*, std::size_t, std::size_t, std::size_t,
                     const double*, std::size_t, std::size_t, std::size_t,
                     std::size_t) {
  SY_ASSERT(false, "num::avx2::cholesky_update: not compiled in");
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  scalar::axpy(alpha, x, y);
}

void rbf_row_kernel(const double* rows, std::size_t n_rows, std::size_t stride,
                    const double* center, std::size_t dim, double gamma,
                    double* out) {
  scalar::rbf_row_kernel(rows, n_rows, stride, center, dim, gamma, out);
}

void sincos4(const double* x, double* sin_out, double* cos_out) {
  for (int i = 0; i < 4; ++i) {
    sin_out[i] = std::sin(x[i]);
    cos_out[i] = std::cos(x[i]);
  }
}

void rff_transform_row(const double* freqs, std::size_t n_freq,
                       std::size_t stride, const double* x, std::size_t dim,
                       double scale, double* out) {
  scalar::rff_transform_row(freqs, n_freq, stride, x, dim, scale, out);
}

#endif  // SY_NUM_HAVE_AVX2

}  // namespace sy::num::avx2
