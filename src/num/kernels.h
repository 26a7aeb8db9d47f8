/// \file
/// The numeric hot kernels every score and retrain bottoms out in.
///
/// Top-level functions dispatch on backend::active_backend(); the explicit
/// scalar:: / avx2:: namespaces exist for tests and for callers that resolve
/// the backend once per batch (ml::gram_matrix, num::cholesky_inplace).
///
/// Contracts:
///   - scalar:: — bit-exact reference. Each kernel performs the same doubles
///     operations in the same order as the historical loops in ml/matrix.cc,
///     ml/kernel.cc and ml/linalg.cc, so the scalar backend reproduces
///     pre-refactor results bit-for-bit.
///   - avx2::  — lane-parallel partial sums + FMA; agrees with scalar to
///     within 1e-12 relative tolerance (property-tested, including remainder
///     lanes). On non-x86 builds the avx2:: symbols forward to scalar:: and
///     avx2::available() is false.
///   - avx512:: — 8-wide double lanes (AVX-512F) with MASKED remainder
///     lanes: a length-n reduction is bit-identical to the same kernel on
///     the zero-padded length-8⌈n/8⌉ input, so an element's contribution
///     never depends on which side of a vector boundary it lands
///     (position independence). Same 1e-12 agreement contract as avx2;
///     forwards to scalar:: where not compiled in.
#pragma once

#include <cstddef>
#include <span>

namespace sy::util {
class ThreadPool;
}  // namespace sy::util

/// Numeric kernel layer: runtime-dispatched scalar/AVX2/AVX-512 hot loops.
namespace sy::num {

/// Inner product `<a, b>` of equal-length spans.
double dot(std::span<const double> a, std::span<const double> b);

/// Squared Euclidean distance `||a - b||^2`.
double squared_distance(std::span<const double> a, std::span<const double> b);

/// `init - <a, b>`. The scalar path subtracts term-by-term in ascending
/// index order — exactly the reduction shape of triangular solves and the
/// Cholesky trailing update ("sum -= l(i,k) * l(j,k)").
double dot_sub(double init, std::span<const double> a,
               std::span<const double> b);

/// `y += alpha * x` (element-wise, ascending index order).
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// Fused RBF row kernel: `out[i] = exp(-gamma * ||rows_i - center||^2)` for
/// `n_rows` row-major rows of length `dim`, consecutive rows `stride`
/// doubles apart. `gamma` must already be resolved
/// (ml::Kernel::effective_gamma is hoisted to the batch level by the callers
/// — it is never re-derived per row).
void rbf_row_kernel(const double* rows, std::size_t n_rows, std::size_t stride,
                    const double* center, std::size_t dim, double gamma,
                    double* out);

/// Fused random-Fourier-feature transform row (the approximate-KRR feature
/// map, ml::RffFeatureMap). For each of `n_freq` frequency rows `w_k`
/// (row-major, length `dim`, consecutive rows `stride` doubles apart):
///
///     phase   = <w_k, x>
///     out[2k]   = scale * cos(phase)
///     out[2k+1] = scale * sin(phase)
///
/// i.e. one matrix-vector product fused with the paired cos/sin feature
/// write; `out` must hold `2 * n_freq` doubles. The scalar path accumulates
/// each phase in ascending index order and calls std::cos/std::sin — that is
/// the bit-exact reference. The avx2 path evaluates four phases per step and
/// both trigs through one Cephes-style vectorized sincos (~1 ulp), inside
/// the 1e-12 relative budget.
void rff_transform_row(const double* freqs, std::size_t n_freq,
                       std::size_t stride, const double* x, std::size_t dim,
                       double scale, double* out);

/// Blocked right-looking Cholesky factorization, in place on the lower
/// triangle of the row-major `n` x `n` matrix `a` (leading dimension
/// `stride`, stride >= n). Per 64-column panel: factor the diagonal block,
/// solve the rows below it against that block, then apply the rank-k
/// trailing update. The strictly upper triangle is neither read nor
/// written.
///
/// \return `n` on success. On a non-positive pivot, returns its index j (the
/// matrix is not positive definite); entries at and beyond column j are
/// partially updated garbage.
///
/// Scalar (the reference): every entry undergoes the same subtraction
/// sequence (ascending k), sqrt, and division as the classic unblocked
/// left-looking loop, so the scalar factor is bit-identical to it; blocking
/// only reorders which entry is visited next. avx2/avx512: the diagonal
/// block keeps the per-entry dot_sub; the rows below it and the trailing
/// update run the packed kernels (cholesky_panel_solve, cholesky_update),
/// where each entry is one fused multiply-subtract chain in ascending k.
/// Within 1e-12 of scalar (relative to the diagonal scale).
std::size_t cholesky_inplace(double* a, std::size_t n, std::size_t stride);

/// How the pooled Cholesky overload schedules the per-panel work. Every
/// schedule produces a BITWISE identical factor per backend: an entry's
/// value is a function of (i, j, k-range) alone — never of which tile, row
/// block or thread computes it — so only the visiting order changes
/// (pinned in tests/num_kernels_test).
enum class CholeskySchedule {
  /// Panel factor and trailing update both on the calling thread.
  kSerial,
  /// The PR-5 schedule: serial panel factor, then the rank-k trailing
  /// update tiled across the pool with a full barrier per panel.
  kParallelTiles,
  /// Look-ahead: after the tiles covering only panel p+1's columns finish,
  /// the owning thread factors panel p+1 WHILE the pool works the rest of
  /// panel p's trailing update — the serial panel factor overlaps tile
  /// work instead of gating it (default for the pooled overload).
  kLookahead,
};

/// Same factorization with the per-panel work scheduled across `pool` once
/// the trailing block has at least kCholeskyParallelRows rows (smaller
/// problems, or pool == nullptr, run the serial schedule). Tiles own
/// disjoint row ranges and read only panel columns finalized before the
/// update starts; the look-ahead panel factor writes only the next panel's
/// column strip, which no concurrent tile touches. The result is BITWISE
/// identical to the serial path on every backend — parallelism changes
/// which thread visits an entry, never the entry's own operation order
/// (pinned in tests/num_kernels_test).
std::size_t cholesky_inplace(double* a, std::size_t n, std::size_t stride,
                             util::ThreadPool* pool,
                             CholeskySchedule schedule =
                                 CholeskySchedule::kLookahead);

/// Trailing-update rows below which the parallel overload stays serial: a
/// tile must amortize the submit/steal handshake, and the serving stack's
/// per-user systems (tens to a few hundred rows) never benefit.
inline constexpr std::size_t kCholeskyParallelRows = 192;

/// Packed-Cholesky layout shared by the avx2:: and avx512:: kernels. For
/// panel columns [p0, p1) (nb = p1 - p0) the L21 rows [p1, n) are stored in
/// 8-row groups, k-major: row p1 + 8g + l, column p0 + k lives at
/// `pack[g * 8 * nb + 8 * k + l]`, and lanes past row n are zero. The pack
/// holds cholesky_pack_groups(n - p1) groups (an even count, so a
/// 16-column trailing block never reads past it) and must be 64-byte
/// aligned.
///
/// cholesky_panel_solve(pack, groups, nb, l11, stride): solves the packed
/// rows in place against the factored diagonal block `l11` (row-major,
/// leading dimension `stride`), rows-in-lanes — entry (i, j) becomes
/// a(i, j) minus x(i, k) * l11(j, k) for k = 0 .. j-1 ascending, one fused
/// multiply-subtract each, then divided by l11(j, j). `groups` is even.
///
/// cholesky_update(a, stride, p0, p1, pack, r0, r1, c0, c1): for rows i in
/// [r0, r1) (r0 >= p1) and columns j in [c0, min(c1, i + 1)), a(i, j)
/// -= l(i, k) * l(j, k) for k = p0 .. p1-1 ascending, one fused
/// multiply-subtract each, with l(i, k) read from `a` and l(j, k) from
/// `pack`. `c0 - p1` must be a multiple of 16. Lanes outside the range are
/// masked: nothing outside it is read or written in `a`.
inline constexpr std::size_t cholesky_pack_groups(std::size_t rows) {
  return (rows + 15) / 16 * 2;
}

/// Bit-exact reference implementations (see the file contract above).
namespace scalar {
/// Scalar `<a, b>` — ascending-index accumulation.
double dot(std::span<const double> a, std::span<const double> b);
/// Scalar `||a - b||^2` — ascending-index accumulation.
double squared_distance(std::span<const double> a, std::span<const double> b);
/// Scalar `init - <a, b>` — ascending-index term-by-term subtraction.
double dot_sub(double init, std::span<const double> a,
               std::span<const double> b);
/// Scalar `y += alpha * x` — ascending-index element loop.
void axpy(double alpha, std::span<const double> x, std::span<double> y);
/// Scalar fused RBF row kernel (reference for the dispatched entry point).
void rbf_row_kernel(const double* rows, std::size_t n_rows, std::size_t stride,
                    const double* center, std::size_t dim, double gamma,
                    double* out);
/// Scalar fused cos/sin RFF transform row (reference: ascending-index phase
/// accumulation, std::cos / std::sin per frequency).
void rff_transform_row(const double* freqs, std::size_t n_freq,
                       std::size_t stride, const double* x, std::size_t dim,
                       double scale, double* out);
}  // namespace scalar

/// AVX2+FMA implementations; forward to scalar:: on non-x86 builds.
namespace avx2 {
/// True when the AVX2+FMA code path is compiled in and this CPU supports it.
bool available();
/// Lane-parallel `<a, b>` with FMA partial sums.
double dot(std::span<const double> a, std::span<const double> b);
/// Lane-parallel `||a - b||^2` with FMA partial sums.
double squared_distance(std::span<const double> a, std::span<const double> b);
/// `init - <a, b>` via the lane-parallel dot.
double dot_sub(double init, std::span<const double> a,
               std::span<const double> b);
/// Packed Cholesky panel solve (rows-in-lanes); contract under
/// cholesky_pack_groups.
void cholesky_panel_solve(double* pack, std::size_t groups, std::size_t nb,
                          const double* l11, std::size_t stride);
/// Packed Cholesky trailing update (4 rows x 8 columns per block);
/// contract under cholesky_pack_groups.
void cholesky_update(double* a, std::size_t stride, std::size_t p0,
                     std::size_t p1, const double* pack, std::size_t r0,
                     std::size_t r1, std::size_t c0, std::size_t c1);
/// Vectorized `y += alpha * x`; remainder lanes use scalar std::fma.
void axpy(double alpha, std::span<const double> x, std::span<double> y);
/// Quad-row fused RBF kernel (four accumulator chains + one exp4 call).
void rbf_row_kernel(const double* rows, std::size_t n_rows, std::size_t stride,
                    const double* center, std::size_t dim, double gamma,
                    double* out);
/// Quad-frequency fused cos/sin RFF transform (four phase chains + one
/// sincos4 call per group).
void rff_transform_row(const double* freqs, std::size_t n_freq,
                       std::size_t stride, const double* x, std::size_t dim,
                       double scale, double* out);
/// Vectorized double-precision exp on 4 lanes (Cephes-style range reduction
/// + rational polynomial, ~1 ulp for normal results). Exposed for tests.
void exp4(const double* x, double* out);
/// Vectorized double-precision sin and cos on 4 lanes (Cephes-style pi/4
/// octant reduction + polynomial, ~1-2 ulp for |x| within the float64
/// octant-index range). Exposed for tests.
void sincos4(const double* x, double* sin_out, double* cos_out);
}  // namespace avx2

/// AVX-512F implementations: 8-wide double lanes with masked remainder
/// lanes, so every reduction is bit-identical to the zero-padded full-lane
/// run (position independence; see the file contract). Forward to scalar::
/// on non-x86 builds.
namespace avx512 {
/// True when the AVX-512F code path is compiled in and this CPU supports it.
bool available();
/// 8-lane `<a, b>` with FMA partial sums and a masked tail lane group.
double dot(std::span<const double> a, std::span<const double> b);
/// 8-lane `||a - b||^2` with FMA partial sums and a masked tail.
double squared_distance(std::span<const double> a, std::span<const double> b);
/// `init - <a, b>` via the 8-lane dot.
double dot_sub(double init, std::span<const double> a,
               std::span<const double> b);
/// Packed Cholesky panel solve (rows-in-lanes); contract under
/// cholesky_pack_groups.
void cholesky_panel_solve(double* pack, std::size_t groups, std::size_t nb,
                          const double* l11, std::size_t stride);
/// Packed Cholesky trailing update (8 rows x 16 columns per block in 16 zmm
/// accumulators); contract under cholesky_pack_groups.
void cholesky_update(double* a, std::size_t stride, std::size_t p0,
                     std::size_t p1, const double* pack, std::size_t r0,
                     std::size_t r1, std::size_t c0, std::size_t c1);
/// 8-lane `y += alpha * x`; the tail is a masked fused multiply-add, so
/// every element sees the identical fma regardless of lane position.
void axpy(double alpha, std::span<const double> x, std::span<double> y);
/// Octo-row fused RBF kernel (eight accumulator chains + one exp8 call).
void rbf_row_kernel(const double* rows, std::size_t n_rows, std::size_t stride,
                    const double* center, std::size_t dim, double gamma,
                    double* out);
/// Octo-frequency fused cos/sin RFF transform (eight phase chains + one
/// sincos8 call per group).
void rff_transform_row(const double* freqs, std::size_t n_freq,
                       std::size_t stride, const double* x, std::size_t dim,
                       double scale, double* out);
/// Vectorized double-precision exp on 8 lanes (same Cephes-style range
/// reduction + rational polynomial as avx2::exp4, ~1 ulp for normal
/// results). Exposed for tests.
void exp8(const double* x, double* out);
/// Vectorized double-precision sin and cos on 8 lanes (Cephes-style pi/4
/// octant reduction + polynomial, ~1-2 ulp for |x| within the float64
/// octant-index range). Exposed for tests.
void sincos8(const double* x, double* sin_out, double* cos_out);
}  // namespace avx512

}  // namespace sy::num
