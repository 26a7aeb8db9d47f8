// Blocked right-looking Cholesky factorization.
//
// Three steps per 64-column panel [p0, p1):
//   1. diagonal block — unblocked column-by-column factor of [p0, p1)^2;
//   2. panel solve — rows [p1, n) of columns [p0, p1) solved against the
//      diagonal block (L21 = A21 L11^-T);
//   3. rank-k trailing update — A22 -= L21 L21^T on the lower triangle of
//      the remaining rows/columns.
//
// Two kernel families share that schedule:
//   - scalar (the bit-exact reference) fuses steps 1 and 2 into one
//     column loop over all rows below the diagonal and runs every entry
//     as one dot_sub over contiguous row segments. Entry (i,j) undergoes
//     subtractions of l(i,k)*l(j,k) in strictly ascending k (trailing
//     updates apply panels in ascending order; the panel factor finishes k
//     in [p0,j)), then the same sqrt / divide as the textbook left-looking
//     loop. Storing the partially-updated entry back to memory between
//     panels is exact, so the factor is bit-identical to the unblocked
//     reference.
//   - avx2/avx512 factor the 64x64 diagonal block with the same dot_sub
//     loop, then run the packed kernels (num/kernels.h): the panel solve
//     transposes eight rows per group into the pack (lane = row) and solves
//     with one vector fused multiply-subtract per (k, j); the pack then
//     serves, k-major, as the B operand of a register-blocked trailing
//     update whose lanes are again one fused multiply-subtract chain per
//     entry in ascending k.
//
// Schedules (all bitwise identical per backend, pinned in num_kernels_test):
//   kSerial        — everything on the calling thread.
//   kParallelTiles — serial panel factor, trailing update tiled across the
//                    pool with a full barrier per panel. The panel factor
//                    gates every tile: the pool idles while one thread
//                    walks 64 columns.
//   kLookahead     — the trailing update for panel p is split at the next
//                    panel boundary p2 = p1 + 64:
//
//                        columns   [p1,p2)  [p2,n)
//                      phase A:    ██████            strip: tiled, barrier
//                      phase B:    factor │ ██████   panel p+1 factor runs
//                                  p+1    │ tiles    CONCURRENTLY with the
//                                         │          rest of the update
//
//                    Phase B's panel factor reads and writes only the strip
//                    columns [p1,p2) (fully updated by phase A's barrier)
//                    and its own pack buffer, while the remaining tiles
//                    write columns >= p2 and read only panel-p columns
//                    [p0,p1) and panel p's pack — disjoint, race-free. The
//                    pack buffers alternate by panel parity.
//
// Why the schedules stay bitwise identical: every kernel computes each
// entry from (i, j, k-range) alone. The scalar path is one dot_sub per
// entry over the same slices; the packed kernels keep each entry in its own
// SIMD lane, masked where a block straddles the diagonal or the range
// edge, so the row block, column block, tile or thread that computes an
// entry never changes its operation sequence. A schedule only decides who
// visits an entry when.
#include "num/backend.h"
#include "num/kernels.h"
#include "util/thread_pool.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

namespace sy::num {

namespace {

// Panel width: 64 columns * 8 bytes = one 512-byte row segment; the trailing
// update then reuses each row's panel slice across a whole row of the
// trailing matrix while it is hot. The packed update's column blocks start
// at p1 or p1 + kPanel, so kPanel keeps them 16-aligned to p1.
constexpr std::size_t kPanel = 64;
static_assert(kPanel % 16 == 0,
              "cholesky_update needs c0 - p1 to be a multiple of 16");

// Rows per trailing-update tile when the update runs on a pool. Small enough
// that the triangular row costs (row i does i - p1 + 1 entries) spread over
// many stealable tasks, large enough to amortize the handshake.
constexpr std::size_t kTileRows = 32;

using DotSubFn = double (*)(double, std::span<const double>,
                            std::span<const double>);
using PanelSolveFn = void (*)(double*, std::size_t, std::size_t,
                              const double*, std::size_t);
using UpdateFn = void (*)(double*, std::size_t, std::size_t, std::size_t,
                          const double*, std::size_t, std::size_t,
                          std::size_t, std::size_t);

// The kernels of the active backend, resolved once per factorization.
// panel_solve/update are null on the scalar backend (the reference path).
struct Kernels {
  DotSubFn dot_sub = scalar::dot_sub;
  PanelSolveFn panel_solve = nullptr;
  UpdateFn update = nullptr;
};

// A 64-byte aligned pack buffer sized for the largest panel of an n x n
// factorization (the first: n - kPanel rows below it).
class PackBuffer {
 public:
  explicit PackBuffer(std::size_t n)
      : storage_(cholesky_pack_groups(n) * 8 * kPanel + 8) {
    const auto addr = reinterpret_cast<std::uintptr_t>(storage_.data());
    data_ = storage_.data() + (64 - addr % 64) % 64 / sizeof(double);
  }
  double* data() { return data_; }

 private:
  std::vector<double> storage_;
  double* data_ = nullptr;
};

// Rows-in-lanes transposes of rows [p1, n), panel columns [p0, p1), into
// the pack (layout in num/kernels.h; padding lanes zero) and back.
void pack_rows(const double* a, std::size_t n, std::size_t stride,
               std::size_t p0, std::size_t p1, double* pack) {
  const std::size_t nb = p1 - p0;
  const std::size_t lanes = cholesky_pack_groups(n - p1) * 8;
  for (std::size_t r = 0; r < lanes; ++r) {
    double* t = pack + r / 8 * 8 * nb + r % 8;
    const double* src = p1 + r < n ? a + (p1 + r) * stride + p0 : nullptr;
    for (std::size_t k = 0; k < nb; ++k) {
      t[8 * k] = src != nullptr ? src[k] : 0.0;
    }
  }
}

void unpack_rows(const double* pack, std::size_t n, std::size_t stride,
                 std::size_t p0, std::size_t p1, double* a) {
  const std::size_t nb = p1 - p0;
  for (std::size_t r = 0; p1 + r < n; ++r) {
    const double* t = pack + r / 8 * 8 * nb + r % 8;
    double* dst = a + (p1 + r) * stride + p0;
    for (std::size_t k = 0; k < nb; ++k) dst[k] = t[8 * k];
  }
}

// A22 -= L21 L21^T on rows [r0, r1) of the lower triangle, columns
// [c0, min(c1, i+1)). Each entry is written by exactly one call, and the
// only reads outside the written range are panel columns [p0, p1) and the
// pack — finalized by the panel factor before any trailing tile starts — so
// concurrent tiles over disjoint row/column ranges are race-free and every
// entry sees the serial operation order.
void trailing_update_rows(double* a, std::size_t stride, std::size_t p0,
                          std::size_t p1, std::size_t c0, std::size_t c1,
                          std::size_t r0, std::size_t r1, const Kernels& k,
                          const double* pack) {
  if (k.update != nullptr) {
    k.update(a, stride, p0, p1, pack, r0, r1, c0, c1);
    return;
  }
  const std::size_t nb = p1 - p0;
  for (std::size_t i = r0; i < r1; ++i) {
    double* row_i = a + i * stride;
    const std::span<const double> li{row_i + p0, nb};
    const std::size_t jend = std::min(c1, i + 1);
    for (std::size_t j = c0; j < jend; ++j) {
      row_i[j] = k.dot_sub(row_i[j], li, {a + j * stride + p0, nb});
    }
  }
}

// Panel factor: columns [p0, p1), all rows below the diagonal. Inherently
// serial (columns depend on each other); reads/writes ONLY columns [p0, p1)
// of `a`, plus `pack` on the packed path — which is what lets the
// look-ahead schedule run it concurrently with trailing tiles that stay at
// or beyond column p1. The scalar column loop covers every row below the
// diagonal; the packed path stops it at p1 and hands rows [p1, n) to the
// rows-in-lanes panel solve.
// Returns p1 on success, or the offending column index on a non-positive
// pivot.
std::size_t factor_panel(double* a, std::size_t n, std::size_t stride,
                         std::size_t p0, std::size_t p1, const Kernels& k,
                         double* pack) {
  const std::size_t rows_end = k.panel_solve != nullptr ? p1 : n;
  for (std::size_t j = p0; j < p1; ++j) {
    double* row_j = a + j * stride;
    const std::span<const double> lj{row_j + p0, j - p0};
    double diag = k.dot_sub(row_j[j], lj, lj);
    if (diag <= 0.0) return j;  // not (numerically) positive definite
    diag = std::sqrt(diag);
    row_j[j] = diag;
    for (std::size_t i = j + 1; i < rows_end; ++i) {
      double* row_i = a + i * stride;
      row_i[j] = k.dot_sub(row_i[j], {row_i + p0, j - p0}, lj) / diag;
    }
  }
  if (k.panel_solve != nullptr && p1 < n) {
    pack_rows(a, n, stride, p0, p1, pack);
    k.panel_solve(pack, cholesky_pack_groups(n - p1), p1 - p0,
                  a + p0 * stride + p0, stride);
    unpack_rows(pack, n, stride, p0, p1, a);
  }
  return p1;
}

// kSerial / kParallelTiles: factor panel p, then its full trailing update
// (tiled across the pool past the row threshold when one is supplied).
std::size_t cholesky_panels(double* a, std::size_t n, std::size_t stride,
                            util::ThreadPool* pool, const Kernels& k,
                            double* pack) {
  for (std::size_t p0 = 0; p0 < n; p0 += kPanel) {
    const std::size_t p1 = std::min(p0 + kPanel, n);
    const std::size_t r = factor_panel(a, n, stride, p0, p1, k, pack);
    if (r != p1) return r;

    // Rank-k trailing update: lower triangle of rows/columns [p1, n). Past
    // the row threshold the rows tile across the pool — disjoint writes,
    // bitwise identical to the serial schedule.
    const std::size_t rows = n - p1;
    if (pool != nullptr && rows >= kCholeskyParallelRows) {
      const std::size_t tiles = (rows + kTileRows - 1) / kTileRows;
      pool->parallel_for(tiles, [&](std::size_t t) {
        const std::size_t r0 = p1 + t * kTileRows;
        const std::size_t r1 = std::min(r0 + kTileRows, n);
        trailing_update_rows(a, stride, p0, p1, p1, n, r0, r1, k, pack);
      });
    } else {
      trailing_update_rows(a, stride, p0, p1, p1, n, p1, n, k, pack);
    }
  }
  return n;
}

// kLookahead: loop invariant — panel [p0, p1) is already factored at the top
// of each iteration (panel 0 is factored before the loop). Each iteration
// then overlaps panel p+1's factor with the tail of panel p's trailing
// update, per the phase A / phase B split in the file comment. Panel q packs
// into packs[q % 2], so panel p+1's factor never writes the pack panel p's
// tiles are reading.
std::size_t cholesky_lookahead(double* a, std::size_t n, std::size_t stride,
                               util::ThreadPool* pool, const Kernels& k,
                               double* const packs[2]) {
  if (n == 0) return 0;
  {
    const std::size_t p1 = std::min(kPanel, n);
    const std::size_t r = factor_panel(a, n, stride, 0, p1, k, packs[0]);
    if (r != p1) return r;
  }
  for (std::size_t p0 = 0;; p0 += kPanel) {
    const std::size_t p1 = std::min(p0 + kPanel, n);
    if (p1 == n) return n;  // the last panel is already factored
    const std::size_t p2 = std::min(p1 + kPanel, n);
    const double* pack = packs[(p0 / kPanel) % 2];
    double* next_pack = packs[(p0 / kPanel + 1) % 2];

    const std::size_t rows = n - p1;
    if (rows < kCholeskyParallelRows) {
      // Too small to amortize tiling: finish panel p's trailing update and
      // factor panel p+1 on the calling thread. Same per-entry order as the
      // serial schedule, so the invariant (and bit-identity) holds across
      // the parallel-to-serial transition.
      trailing_update_rows(a, stride, p0, p1, p1, n, p1, n, k, pack);
      const std::size_t r = factor_panel(a, n, stride, p1, p2, k, next_pack);
      if (r != p2) return r;
      continue;
    }

    // Phase A — strip update: apply panel p to columns [p1, p2) of every
    // trailing row. After the barrier, panel p+1's columns carry every
    // panel's contribution and are ready to factor.
    const std::size_t strip_tiles = (rows + kTileRows - 1) / kTileRows;
    pool->parallel_for(strip_tiles, [&](std::size_t t) {
      const std::size_t r0 = p1 + t * kTileRows;
      const std::size_t r1 = std::min(r0 + kTileRows, n);
      trailing_update_rows(a, stride, p0, p1, p1, p2, r0, r1, k, pack);
    });

    // Phase B — task 0 factors panel p+1 (touching only columns [p1, p2)
    // and next_pack) while the remaining tasks apply panel p to columns
    // >= p2. The caller drains the pool queue first inside parallel_for, so
    // the owning thread typically takes the panel factor itself.
    // `panel_result` is written by task 0 only; parallel_for's join
    // supplies the happens-before for the read below.
    const std::size_t rest_rows = n - p2;
    const std::size_t rest_tiles =
        rest_rows == 0 ? 0 : (rest_rows + kTileRows - 1) / kTileRows;
    std::size_t panel_result = p2;
    pool->parallel_for(1 + rest_tiles, [&](std::size_t t) {
      if (t == 0) {
        panel_result = factor_panel(a, n, stride, p1, p2, k, next_pack);
        return;
      }
      const std::size_t r0 = p2 + (t - 1) * kTileRows;
      const std::size_t r1 = std::min(r0 + kTileRows, n);
      trailing_update_rows(a, stride, p0, p1, p2, n, r0, r1, k, pack);
    });
    // A non-positive pivot is computed from bits identical to the serial
    // schedule's, so the reported column matches kSerial exactly.
    if (panel_result != p2) return panel_result;
  }
}

}  // namespace

std::size_t cholesky_inplace(double* a, std::size_t n, std::size_t stride,
                             util::ThreadPool* pool,
                             CholeskySchedule schedule) {
  Kernels k;
  const Backend backend = active_backend();
  if (backend == Backend::kAvx512) {
    k = {avx512::dot_sub, avx512::cholesky_panel_solve,
         avx512::cholesky_update};
  } else if (backend == Backend::kAvx2) {
    k = {avx2::dot_sub, avx2::cholesky_panel_solve, avx2::cholesky_update};
  }
  // The scalar path needs no pack; a single panel has no rows below it.
  const bool packed = k.panel_solve != nullptr && n > kPanel;
  const bool lookahead = pool != nullptr &&
                         schedule == CholeskySchedule::kLookahead;
  std::optional<PackBuffer> pack0;
  std::optional<PackBuffer> pack1;
  if (packed) pack0.emplace(n);
  if (packed && lookahead) pack1.emplace(n);
  double* const packs[2] = {pack0 ? pack0->data() : nullptr,
                            pack1 ? pack1->data() : nullptr};

  if (lookahead) return cholesky_lookahead(a, n, stride, pool, k, packs);
  return cholesky_panels(
      a, n, stride,
      schedule == CholeskySchedule::kParallelTiles ? pool : nullptr, k,
      packs[0]);
}

std::size_t cholesky_inplace(double* a, std::size_t n, std::size_t stride) {
  return cholesky_inplace(a, n, stride, nullptr, CholeskySchedule::kSerial);
}

}  // namespace sy::num
