// AVX-512F kernels, selected at runtime (function-level target attributes,
// so this translation unit builds without -mavx512f and plain x86-64
// binaries stay portable). Everything here is restricted to the AVX-512F
// foundation subset — no DQ/BW/VL instructions — so the runtime gate is a
// single __builtin_cpu_supports("avx512f") check.
//
// Remainder-lane contract (the point of this backend): tails are handled
// with MASKED loads/stores, never a differently-shaped scalar loop. A
// masked-off lane loads as +0.0 and contributes fma(0, 0, acc) == acc to a
// reduction, so a length-n kernel is bit-identical to the same kernel over
// the zero-padded length-8*ceil(n/8) input. An element's result therefore
// never depends on which side of a vector boundary it lands — the
// position-independence property the batch-vs-single bit-equality contracts
// above num:: rely on, now without a separately-audited scalar tail.
//
// exp and sincos port the Cephes-style AVX2 implementations
// (kernels_avx2.cc) to 8 lanes, with __mmask8 compares replacing the
// blendv sign/patch plumbing. Accuracy is unchanged (~1 ulp for normal
// results), far inside the 1e-12 agreement budget with scalar.
#include "num/kernels.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define SY_NUM_HAVE_AVX512 1
#include <immintrin.h>
#else
#define SY_NUM_HAVE_AVX512 0
#endif

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.h"

namespace sy::num::avx512 {

#if SY_NUM_HAVE_AVX512

#define SY_AVX512 __attribute__((target("avx512f")))

bool available() { return __builtin_cpu_supports("avx512f"); }

namespace {

// Fixed-shape horizontal sum: 512 -> 256 halves, then the same shuffle
// cascade as the avx2 backend's hsum. Every reduction in this file funnels
// through this one shape, which keeps per-element results a pure function
// of (data, n) — never of batch position.
SY_AVX512 inline double hsum8(__m512d v) {
  const __m256d lo = _mm512_castpd512_pd256(v);
  const __m256d hi = _mm512_extractf64x4_pd(v, 1);
  const __m256d sum4 = _mm256_add_pd(lo, hi);
  const __m128d lo2 = _mm256_castpd256_pd128(sum4);
  const __m128d hi2 = _mm256_extractf128_pd(sum4, 1);
  const __m128d sum2 = _mm_add_pd(lo2, hi2);
  const __m128d swapped = _mm_unpackhi_pd(sum2, sum2);
  return _mm_cvtsd_f64(_mm_add_sd(sum2, swapped));
}

// Mask selecting the low `rem` lanes (rem in [0, 8]).
inline __mmask8 tail_mask(std::size_t rem) {
  return static_cast<__mmask8>((1u << rem) - 1u);
}

// 2^e for integer-valued e lanes in [-1022, 1023], built in the exponent
// field. Out-of-range lanes are the callers' problem (exp_pd splits its
// scaling in halves precisely so each half stays in range).
SY_AVX512 inline __m512d pow2i(__m512d e) {
  const __m256i e32 = _mm512_cvtpd_epi32(e);
  const __m512i e64 = _mm512_cvtepi32_epi64(e32);
  const __m512i bits =
      _mm512_slli_epi64(_mm512_add_epi64(e64, _mm512_set1_epi64(1023)), 52);
  return _mm512_castsi512_pd(bits);
}

// Cephes exp() constants (double precision) — identical to kernels_avx2.cc.
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

SY_AVX512 inline __m512d exp_pd(__m512d x) {
  // The clamp would silently absorb out-of-range and NaN lanes; remember
  // the raw input and patch those lanes at the end (overflow -> +inf,
  // underflow -> +0, NaN propagates), exactly like avx2::exp_pd.
  const __m512d input = x;
  const __mmask8 nan_lanes = _mm512_cmp_pd_mask(x, x, _CMP_UNORD_Q);
  x = _mm512_min_pd(x, _mm512_set1_pd(kMaxArg));
  x = _mm512_max_pd(x, _mm512_set1_pd(kMinArg));

  // n = round(x / ln2); reduce with the split ln2 so r is exact-ish.
  const __m512d n = _mm512_roundscale_pd(
      _mm512_mul_pd(x, _mm512_set1_pd(kLog2E)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m512d r = _mm512_fnmadd_pd(n, _mm512_set1_pd(kC1), x);
  r = _mm512_fnmadd_pd(n, _mm512_set1_pd(kC2), r);

  // Rational approximation: exp(r) = 1 + 2 r P(r^2) / (Q(r^2) - r P(r^2)).
  const __m512d rr = _mm512_mul_pd(r, r);
  __m512d p = _mm512_set1_pd(kP0);
  p = _mm512_fmadd_pd(p, rr, _mm512_set1_pd(kP1));
  p = _mm512_fmadd_pd(p, rr, _mm512_set1_pd(kP2));
  p = _mm512_mul_pd(p, r);
  __m512d q = _mm512_set1_pd(kQ0);
  q = _mm512_fmadd_pd(q, rr, _mm512_set1_pd(kQ1));
  q = _mm512_fmadd_pd(q, rr, _mm512_set1_pd(kQ2));
  q = _mm512_fmadd_pd(q, rr, _mm512_set1_pd(kQ3));
  const __m512d e =
      _mm512_fmadd_pd(_mm512_set1_pd(2.0),
                      _mm512_div_pd(p, _mm512_sub_pd(q, p)),
                      _mm512_set1_pd(1.0));

  // Scale by 2^n in two halves: each half stays inside the normal exponent
  // range, and the final multiply may round into a denormal when n < -1022.
  const __m512d n1 = _mm512_roundscale_pd(
      _mm512_mul_pd(n, _mm512_set1_pd(0.5)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m512d n2 = _mm512_sub_pd(n, n1);
  __m512d result = _mm512_mul_pd(_mm512_mul_pd(e, pow2i(n1)), pow2i(n2));
  // Ordered compares are false on NaN lanes, so the patch order matters:
  // overflow, underflow, then NaN restoration.
  result = _mm512_mask_blend_pd(
      _mm512_cmp_pd_mask(input, _mm512_set1_pd(kMaxArg), _CMP_GT_OQ), result,
      _mm512_set1_pd(std::numeric_limits<double>::infinity()));
  result = _mm512_mask_blend_pd(
      _mm512_cmp_pd_mask(input, _mm512_set1_pd(kMinArg), _CMP_LT_OQ), result,
      _mm512_setzero_pd());
  return _mm512_mask_blend_pd(nan_lanes, result, input);
}

}  // namespace

SY_AVX512 void exp8(const double* x, double* out) {
  _mm512_storeu_pd(out, exp_pd(_mm512_loadu_pd(x)));
}

SY_AVX512 double dot(std::span<const double> a, std::span<const double> b) {
  SY_ASSERT(a.size() == b.size(), "num::dot: size mismatch");
  const std::size_t n = a.size();
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a.data() + i),
                           _mm512_loadu_pd(b.data() + i), acc0);
    acc1 = _mm512_fmadd_pd(_mm512_loadu_pd(a.data() + i + 8),
                           _mm512_loadu_pd(b.data() + i + 8), acc1);
  }
  if (i + 8 <= n) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a.data() + i),
                           _mm512_loadu_pd(b.data() + i), acc0);
    i += 8;
  }
  if (i < n) {
    // The tail group joins the accumulator its group index (i/8) would use
    // if the input were zero-padded to a full lane group — that parity
    // match is what makes the masked run bit-identical to the padded one.
    const __mmask8 m = tail_mask(n - i);
    const __m512d pa = _mm512_maskz_loadu_pd(m, a.data() + i);
    const __m512d pb = _mm512_maskz_loadu_pd(m, b.data() + i);
    if (((i >> 3) & 1) == 0) {
      acc0 = _mm512_fmadd_pd(pa, pb, acc0);
    } else {
      acc1 = _mm512_fmadd_pd(pa, pb, acc1);
    }
  }
  return hsum8(_mm512_add_pd(acc0, acc1));
}

SY_AVX512 double squared_distance(std::span<const double> a,
                                  std::span<const double> b) {
  SY_ASSERT(a.size() == b.size(), "num::squared_distance: size mismatch");
  const std::size_t n = a.size();
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512d d0 = _mm512_sub_pd(_mm512_loadu_pd(a.data() + i),
                                     _mm512_loadu_pd(b.data() + i));
    const __m512d d1 = _mm512_sub_pd(_mm512_loadu_pd(a.data() + i + 8),
                                     _mm512_loadu_pd(b.data() + i + 8));
    acc0 = _mm512_fmadd_pd(d0, d0, acc0);
    acc1 = _mm512_fmadd_pd(d1, d1, acc1);
  }
  if (i + 8 <= n) {
    const __m512d d = _mm512_sub_pd(_mm512_loadu_pd(a.data() + i),
                                    _mm512_loadu_pd(b.data() + i));
    acc0 = _mm512_fmadd_pd(d, d, acc0);
    i += 8;
  }
  if (i < n) {
    // Same group-parity rule as dot(): keeps the masked run bit-identical
    // to the zero-padded full-lane run.
    const __mmask8 m = tail_mask(n - i);
    const __m512d d = _mm512_sub_pd(_mm512_maskz_loadu_pd(m, a.data() + i),
                                    _mm512_maskz_loadu_pd(m, b.data() + i));
    if (((i >> 3) & 1) == 0) {
      acc0 = _mm512_fmadd_pd(d, d, acc0);
    } else {
      acc1 = _mm512_fmadd_pd(d, d, acc1);
    }
  }
  return hsum8(_mm512_add_pd(acc0, acc1));
}

SY_AVX512 double dot_sub(double init, std::span<const double> a,
                         std::span<const double> b) {
  return init - dot(a, b);
}

namespace {

// Rows-in-lanes forward solve of G consecutive pack groups against L11:
// entry (i, j) is b(i, j) minus x(i, k) * l11(j, k) for k ascending, one
// fnmadd each, then one division by l11(j, j) — whatever lane or pass it
// lands in. The G groups are G independent chains per column.
template <int G>
SY_AVX512 inline void solve_groups(double* t, std::size_t nb,
                                   const double* l11, std::size_t stride) {
  const std::size_t gs = 8 * nb;
  for (std::size_t j = 0; j < nb; ++j) {
    const double* lj = l11 + j * stride;
    __m512d x[G];
#pragma GCC unroll 8
    for (int q = 0; q < G; ++q) x[q] = _mm512_load_pd(t + q * gs + 8 * j);
    for (std::size_t k = 0; k < j; ++k) {
      const __m512d ljk = _mm512_set1_pd(lj[k]);
#pragma GCC unroll 8
      for (int q = 0; q < G; ++q) {
        x[q] = _mm512_fnmadd_pd(_mm512_load_pd(t + q * gs + 8 * k), ljk, x[q]);
      }
    }
    const __m512d d = _mm512_set1_pd(lj[j]);
#pragma GCC unroll 8
    for (int q = 0; q < G; ++q) {
      _mm512_store_pd(t + q * gs + 8 * j, _mm512_div_pd(x[q], d));
    }
  }
}

// Trailing-update micro-kernel: rows [i0, i0 + R) across columns
// [c0, min(c1, i0 + R)), one R x 16 block (two packed column groups, 2R zmm
// accumulators) at a time. Lane masks keep row i to columns
// [j0, min(c1, i + 1)): nothing above the diagonal or past c1 is loaded or
// stored. Each lane is one fnmadd chain in ascending k, so an entry's bits
// never depend on the block it lands in.
template <int R>
SY_AVX512 inline void update_row_block(double* a, std::size_t stride,
                                       std::size_t p0, std::size_t p1,
                                       const double* pack, std::size_t i0,
                                       std::size_t c0, std::size_t c1) {
  const std::size_t nb = p1 - p0;
  const double* l = a + i0 * stride + p0;  // row i0's panel slice
  const std::size_t jend = std::min(c1, i0 + R);
  for (std::size_t j0 = c0; j0 < jend; j0 += 16) {
    double* c = a + i0 * stride + j0;
    const double* b0 = pack + (j0 - p1) / 8 * 8 * nb;
    const double* b1 = b0 + 8 * nb;
    __mmask8 m0[R];
    __mmask8 m1[R];
    __m512d acc0[R];
    __m512d acc1[R];
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const std::size_t end = std::min(c1, i0 + r + 1);
      const std::size_t valid =
          end > j0 ? std::min<std::size_t>(end - j0, 16) : 0;
      m0[r] = tail_mask(std::min<std::size_t>(valid, 8));
      m1[r] = tail_mask(valid > 8 ? valid - 8 : 0);
      acc0[r] = _mm512_maskz_loadu_pd(m0[r], c + r * stride);
      acc1[r] = _mm512_maskz_loadu_pd(m1[r], c + r * stride + 8);
    }
    for (std::size_t k = 0; k < nb; ++k) {
      const __m512d bk0 = _mm512_load_pd(b0 + 8 * k);
      const __m512d bk1 = _mm512_load_pd(b1 + 8 * k);
#pragma GCC unroll 8
      for (int r = 0; r < R; ++r) {
        const __m512d lik = _mm512_set1_pd(l[r * stride + k]);
        acc0[r] = _mm512_fnmadd_pd(lik, bk0, acc0[r]);
        acc1[r] = _mm512_fnmadd_pd(lik, bk1, acc1[r]);
      }
    }
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      _mm512_mask_storeu_pd(c + r * stride, m0[r], acc0[r]);
      _mm512_mask_storeu_pd(c + r * stride + 8, m1[r], acc1[r]);
    }
  }
}

}  // namespace

SY_AVX512 void cholesky_panel_solve(double* pack, std::size_t groups,
                                    std::size_t nb, const double* l11,
                                    std::size_t stride) {
  // Eight groups (64 rows: eight independent fnmadd chains per column) per
  // pass, then the remainder two at a time (`groups` is even).
  const std::size_t gs = 8 * nb;
  std::size_t g = 0;
  for (; g + 8 <= groups; g += 8) {
    solve_groups<8>(pack + g * gs, nb, l11, stride);
  }
  for (; g < groups; g += 2) solve_groups<2>(pack + g * gs, nb, l11, stride);
}

SY_AVX512 void cholesky_update(double* a, std::size_t stride, std::size_t p0,
                               std::size_t p1, const double* pack,
                               std::size_t r0, std::size_t r1, std::size_t c0,
                               std::size_t c1) {
  // Row blocks outermost: the block's eight panel rows (8 * nb doubles)
  // stay in L1 and its eight output rows stream left to right, while the
  // pack (L2-resident) supplies one 16-column slab per block.
  std::size_t i = r0;
  for (; i + 8 <= r1; i += 8) {
    update_row_block<8>(a, stride, p0, p1, pack, i, c0, c1);
  }
  for (; i < r1; ++i) update_row_block<1>(a, stride, p0, p1, pack, i, c0, c1);
}

SY_AVX512 void axpy(double alpha, std::span<const double> x,
                    std::span<double> y) {
  SY_ASSERT(x.size() == y.size(), "num::axpy: size mismatch");
  const std::size_t n = x.size();
  const __m512d va = _mm512_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d yi = _mm512_loadu_pd(y.data() + i);
    _mm512_storeu_pd(y.data() + i,
                     _mm512_fmadd_pd(va, _mm512_loadu_pd(x.data() + i), yi));
  }
  if (i < n) {
    // Masked fma tail: every element undergoes the identical fused
    // multiply-add whichever lane it lands in.
    const __mmask8 m = tail_mask(n - i);
    const __m512d yi = _mm512_maskz_loadu_pd(m, y.data() + i);
    _mm512_mask_storeu_pd(
        y.data() + i, m,
        _mm512_fmadd_pd(va, _mm512_maskz_loadu_pd(m, x.data() + i), yi));
  }
}

namespace {

// Per-row squared distance with the fixed, position-independent reduction
// shape: one fmadd chain over 8-wide steps, a masked tail step, horizontal
// sum. The octo path below interleaves eight of exactly these chains
// (lanewise-identical ops), so a row's bits never depend on which group of
// a batch it landed in.
SY_AVX512 inline double rbf_sqdist_one(const double* row, const double* center,
                                       std::size_t dim) {
  __m512d acc = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    const __m512d d = _mm512_sub_pd(_mm512_loadu_pd(row + i),
                                    _mm512_loadu_pd(center + i));
    acc = _mm512_fmadd_pd(d, d, acc);
  }
  if (i < dim) {
    const __mmask8 m = tail_mask(dim - i);
    const __m512d d = _mm512_sub_pd(_mm512_maskz_loadu_pd(m, row + i),
                                    _mm512_maskz_loadu_pd(m, center + i));
    acc = _mm512_fmadd_pd(d, d, acc);
  }
  return hsum8(acc);
}

}  // namespace

SY_AVX512 void rbf_row_kernel(const double* rows, std::size_t n_rows,
                              std::size_t stride, const double* center,
                              std::size_t dim, double gamma, double* out) {
  double args[8];
  double vals[8];
  std::size_t r = 0;
  // Octo path: eight independent accumulator chains hide the fmadd latency,
  // and the eight exps run as one vector call.
  for (; r + 8 <= n_rows; r += 8) {
    const double* rp[8];
    rp[0] = rows + r * stride;
    for (int g = 1; g < 8; ++g) rp[g] = rp[g - 1] + stride;
    __m512d acc[8];
    for (auto& a : acc) a = _mm512_setzero_pd();
    std::size_t i = 0;
    for (; i + 8 <= dim; i += 8) {
      const __m512d c = _mm512_loadu_pd(center + i);
      for (int g = 0; g < 8; ++g) {
        const __m512d d = _mm512_sub_pd(_mm512_loadu_pd(rp[g] + i), c);
        acc[g] = _mm512_fmadd_pd(d, d, acc[g]);
      }
    }
    if (i < dim) {
      const __mmask8 m = tail_mask(dim - i);
      const __m512d c = _mm512_maskz_loadu_pd(m, center + i);
      for (int g = 0; g < 8; ++g) {
        const __m512d d = _mm512_sub_pd(_mm512_maskz_loadu_pd(m, rp[g] + i), c);
        acc[g] = _mm512_fmadd_pd(d, d, acc[g]);
      }
    }
    for (int g = 0; g < 8; ++g) args[g] = -gamma * hsum8(acc[g]);
    exp8(args, out + r);
  }
  // Remainder rows: one lane each of the same chain shape, exp padded.
  if (r < n_rows) {
    const std::size_t group = n_rows - r;
    for (std::size_t g = 0; g < group; ++g) {
      args[g] = -gamma * rbf_sqdist_one(rows + (r + g) * stride, center, dim);
    }
    for (std::size_t g = group; g < 8; ++g) args[g] = 0.0;
    exp8(args, vals);
    for (std::size_t g = 0; g < group; ++g) out[r + g] = vals[g];
  }
}

namespace {

// Cephes sin/cos constants (double precision) — identical to
// kernels_avx2.cc: pi/4 split into three parts for extended-precision
// argument reduction, plus the polynomial coefficients over the reduced
// octant argument.
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

// Sign-bit xor in the integer domain (the FP xor/and instructions are
// AVX-512DQ; this file stays inside the F foundation subset).
SY_AVX512 inline __m512d xor_pd(__m512d a, __m512d b) {
  return _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(a),
                                              _mm512_castpd_si512(b)));
}

SY_AVX512 inline __m512d abs_pd(__m512d x) {
  return _mm512_castsi512_pd(_mm512_andnot_si512(
      _mm512_castpd_si512(_mm512_set1_pd(-0.0)), _mm512_castpd_si512(x)));
}

// Branch-free Cephes sincos on 8 lanes; the octant bookkeeping runs on
// __mmask8 compares instead of the avx2 backend's vector masks, but the
// arithmetic is lane-for-lane the same.
SY_AVX512 inline void sincos_pd(__m512d x, __m512d* s_out, __m512d* c_out) {
  const __m512d sign_bit = _mm512_set1_pd(-0.0);
  __m512d sin_sign = _mm512_castsi512_pd(_mm512_and_si512(
      _mm512_castpd_si512(x), _mm512_castpd_si512(sign_bit)));
  x = abs_pd(x);

  // Octant: j = floor(x * 4/pi), forced even (y tracks j as a double).
  __m512d y = _mm512_roundscale_pd(
      _mm512_mul_pd(x, _mm512_set1_pd(kFourOverPi)),
      _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  __m512i j = _mm512_cvtepi32_epi64(_mm512_cvtpd_epi32(y));
  const __m512i odd = _mm512_and_si512(j, _mm512_set1_epi64(1));
  j = _mm512_add_epi64(j, odd);
  const __mmask8 odd_mask =
      _mm512_cmpeq_epi64_mask(odd, _mm512_set1_epi64(1));
  y = _mm512_mask_add_pd(y, odd_mask, y, _mm512_set1_pd(1.0));
  j = _mm512_and_si512(j, _mm512_set1_epi64(7));

  // Map octants 4..7 onto 0..3 with a sign flip on both results.
  const __mmask8 gt3 = _mm512_cmpgt_epi64_mask(j, _mm512_set1_epi64(3));
  j = _mm512_mask_sub_epi64(j, gt3, j, _mm512_set1_epi64(4));
  const __m512d gt3_sign =
      _mm512_maskz_mov_pd(gt3, sign_bit);  // -0.0 on flipped lanes
  sin_sign = xor_pd(sin_sign, gt3_sign);
  __m512d cos_sign = gt3_sign;
  const __mmask8 gt1 = _mm512_cmpgt_epi64_mask(j, _mm512_set1_epi64(1));
  cos_sign = xor_pd(cos_sign, _mm512_maskz_mov_pd(gt1, sign_bit));

  // Extended-precision reduction: z = ((x - y*DP1) - y*DP2) - y*DP3.
  __m512d z = _mm512_fnmadd_pd(y, _mm512_set1_pd(kDP1), x);
  z = _mm512_fnmadd_pd(y, _mm512_set1_pd(kDP2), z);
  z = _mm512_fnmadd_pd(y, _mm512_set1_pd(kDP3), z);
  const __m512d zz = _mm512_mul_pd(z, z);

  // sin(z) = z + z * zz * P_sin(zz)
  __m512d ps = _mm512_set1_pd(kSin0);
  ps = _mm512_fmadd_pd(ps, zz, _mm512_set1_pd(kSin1));
  ps = _mm512_fmadd_pd(ps, zz, _mm512_set1_pd(kSin2));
  ps = _mm512_fmadd_pd(ps, zz, _mm512_set1_pd(kSin3));
  ps = _mm512_fmadd_pd(ps, zz, _mm512_set1_pd(kSin4));
  ps = _mm512_fmadd_pd(ps, zz, _mm512_set1_pd(kSin5));
  ps = _mm512_fmadd_pd(_mm512_mul_pd(ps, zz), z, z);
  // cos(z) = 1 - zz/2 + zz * zz * P_cos(zz)
  __m512d pc = _mm512_set1_pd(kCos0);
  pc = _mm512_fmadd_pd(pc, zz, _mm512_set1_pd(kCos1));
  pc = _mm512_fmadd_pd(pc, zz, _mm512_set1_pd(kCos2));
  pc = _mm512_fmadd_pd(pc, zz, _mm512_set1_pd(kCos3));
  pc = _mm512_fmadd_pd(pc, zz, _mm512_set1_pd(kCos4));
  pc = _mm512_fmadd_pd(pc, zz, _mm512_set1_pd(kCos5));
  pc = _mm512_mul_pd(pc, _mm512_mul_pd(zz, zz));
  pc = _mm512_add_pd(pc, _mm512_fnmadd_pd(zz, _mm512_set1_pd(0.5),
                                          _mm512_set1_pd(1.0)));

  // Octants 1 and 2 swap which polynomial feeds which result.
  const __mmask8 swap = static_cast<__mmask8>(
      _mm512_cmpeq_epi64_mask(j, _mm512_set1_epi64(1)) |
      _mm512_cmpeq_epi64_mask(j, _mm512_set1_epi64(2)));
  const __m512d sin_val = _mm512_mask_blend_pd(swap, ps, pc);
  const __m512d cos_val = _mm512_mask_blend_pd(swap, pc, ps);
  *s_out = xor_pd(sin_val, sin_sign);
  *c_out = xor_pd(cos_val, cos_sign);
}

// Single-frequency phase with the same reduction shape as one lane of the
// octo loop in rff_transform_row (8-wide fmadd chain, masked tail, hsum8),
// so a frequency's phase never depends on its group position.
SY_AVX512 inline double rff_phase_one(const double* w, const double* x,
                                      std::size_t dim) {
  __m512d acc = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    acc = _mm512_fmadd_pd(_mm512_loadu_pd(w + i), _mm512_loadu_pd(x + i), acc);
  }
  if (i < dim) {
    const __mmask8 m = tail_mask(dim - i);
    acc = _mm512_fmadd_pd(_mm512_maskz_loadu_pd(m, w + i),
                          _mm512_maskz_loadu_pd(m, x + i), acc);
  }
  return hsum8(acc);
}

}  // namespace

SY_AVX512 void sincos8(const double* x, double* sin_out, double* cos_out) {
  bool fast = true;
  for (int i = 0; i < 8; ++i) {
    if (!(std::abs(x[i]) < kMaxSincosArg)) fast = false;  // catches NaN too
  }
  if (fast) {
    __m512d s;
    __m512d c;
    sincos_pd(_mm512_loadu_pd(x), &s, &c);
    _mm512_storeu_pd(sin_out, s);
    _mm512_storeu_pd(cos_out, c);
    return;
  }
  // Out-of-range or NaN lanes: the octant index would not survive the epi32
  // conversion, so fall back to libm for the whole group (cold path).
  for (int i = 0; i < 8; ++i) {
    sin_out[i] = std::sin(x[i]);
    cos_out[i] = std::cos(x[i]);
  }
}

SY_AVX512 void rff_transform_row(const double* freqs, std::size_t n_freq,
                                 std::size_t stride, const double* x,
                                 std::size_t dim, double scale, double* out) {
  double phases[8];
  double sins[8];
  double coss[8];
  std::size_t r = 0;
  // Octo path: eight independent phase chains hide the fmadd latency, and
  // the eight sincos evaluations run as one vector call.
  for (; r + 8 <= n_freq; r += 8) {
    const double* wp[8];
    wp[0] = freqs + r * stride;
    for (int g = 1; g < 8; ++g) wp[g] = wp[g - 1] + stride;
    __m512d acc[8];
    for (auto& a : acc) a = _mm512_setzero_pd();
    std::size_t i = 0;
    for (; i + 8 <= dim; i += 8) {
      const __m512d xi = _mm512_loadu_pd(x + i);
      for (int g = 0; g < 8; ++g) {
        acc[g] = _mm512_fmadd_pd(_mm512_loadu_pd(wp[g] + i), xi, acc[g]);
      }
    }
    if (i < dim) {
      const __mmask8 m = tail_mask(dim - i);
      const __m512d xi = _mm512_maskz_loadu_pd(m, x + i);
      for (int g = 0; g < 8; ++g) {
        acc[g] =
            _mm512_fmadd_pd(_mm512_maskz_loadu_pd(m, wp[g] + i), xi, acc[g]);
      }
    }
    for (int g = 0; g < 8; ++g) phases[g] = hsum8(acc[g]);
    sincos8(phases, sins, coss);
    for (std::size_t g = 0; g < 8; ++g) {
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
    for (std::size_t g = group; g < 8; ++g) phases[g] = 0.0;
    sincos8(phases, sins, coss);
    for (std::size_t g = 0; g < group; ++g) {
      out[2 * (r + g)] = scale * coss[g];
      out[2 * (r + g) + 1] = scale * sins[g];
    }
  }
}

#undef SY_AVX512

#else  // !SY_NUM_HAVE_AVX512: forward to scalar so callers can link anywhere.

bool available() { return false; }

void exp8(const double* x, double* out) {
  for (int i = 0; i < 8; ++i) out[i] = std::exp(x[i]);
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

// Never dispatched: the avx512 backend is unavailable in this build.
void cholesky_panel_solve(double*, std::size_t, std::size_t, const double*,
                          std::size_t) {
  SY_ASSERT(false, "num::avx512::cholesky_panel_solve: not compiled in");
}

void cholesky_update(double*, std::size_t, std::size_t, std::size_t,
                     const double*, std::size_t, std::size_t, std::size_t,
                     std::size_t) {
  SY_ASSERT(false, "num::avx512::cholesky_update: not compiled in");
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  scalar::axpy(alpha, x, y);
}

void rbf_row_kernel(const double* rows, std::size_t n_rows, std::size_t stride,
                    const double* center, std::size_t dim, double gamma,
                    double* out) {
  scalar::rbf_row_kernel(rows, n_rows, stride, center, dim, gamma, out);
}

void sincos8(const double* x, double* sin_out, double* cos_out) {
  for (int i = 0; i < 8; ++i) {
    sin_out[i] = std::sin(x[i]);
    cos_out[i] = std::cos(x[i]);
  }
}

void rff_transform_row(const double* freqs, std::size_t n_freq,
                       std::size_t stride, const double* x, std::size_t dim,
                       double scale, double* out) {
  scalar::rff_transform_row(freqs, n_freq, stride, x, dim, scale, out);
}

#endif  // SY_NUM_HAVE_AVX512

}  // namespace sy::num::avx512
