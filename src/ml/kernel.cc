#include "ml/kernel.h"

#include <algorithm>
#include <cmath>

#include "num/kernels.h"
#include "util/assert.h"

namespace sy::ml {

double Kernel::effective_gamma(std::size_t dim) const {
  if (gamma > 0.0) return gamma;
  return dim > 0 ? 1.0 / static_cast<double>(dim) : 1.0;
}

double Kernel::operator()(std::span<const double> a,
                          std::span<const double> b) const {
  switch (type) {
    case KernelType::kLinear:
      return dot(a, b);
    case KernelType::kRbf:
      return std::exp(-effective_gamma(a.size()) * squared_distance(a, b));
  }
  return 0.0;
}

std::string Kernel::name() const {
  switch (type) {
    case KernelType::kLinear:
      return "linear";
    case KernelType::kRbf:
      return "rbf";
  }
  return "unknown";
}

namespace {

// Tile edge for the blocked Gram builder: a 64-row tile of 28-dim doubles
// (~14 KiB) keeps both operand tiles resident in L1/L2.
constexpr std::size_t kTile = 64;

// One row of kernel values k(center, rows[j0..j1)) into `out`, with gamma
// resolved once at the batch level (never re-derived per entry). The RBF
// case is the fused num:: row kernel — squared distance and exp in one
// dispatched pass over the row tile.
void kernel_row(const Matrix& rows, std::size_t j0, std::size_t j1,
                std::span<const double> center, const Kernel& kernel,
                double gamma, double* out) {
  if (kernel.type == KernelType::kRbf) {
    num::rbf_row_kernel(rows.data().data() + j0 * rows.cols(), j1 - j0,
                        rows.cols(), center.data(), rows.cols(), gamma,
                        out);
    return;
  }
  for (std::size_t j = j0; j < j1; ++j) {
    out[j - j0] = num::dot(rows.row(j), center);
  }
}

}  // namespace

Matrix gram_matrix(const Matrix& x, const Kernel& kernel) {
  const std::size_t n = x.rows();
  Matrix k(n, n);
  if (n == 0) return k;
  const double gamma = kernel.effective_gamma(x.cols());
  // Lower-triangular tiles: tiling changes visit order (for locality of the
  // row operands) but not values; the upper triangle is mirrored, so exact
  // symmetry holds by construction on every backend.
  for (std::size_t i0 = 0; i0 < n; i0 += kTile) {
    const std::size_t i1 = std::min(i0 + kTile, n);
    for (std::size_t j0 = 0; j0 <= i0; j0 += kTile) {
      const std::size_t j1 = std::min(j0 + kTile, n);
      for (std::size_t i = i0; i < i1; ++i) {
        const std::size_t j_end = std::min(j1, i + 1);
        if (j_end <= j0) continue;
        kernel_row(x, j0, j_end, x.row(i), kernel, gamma, &k(i, j0));
        for (std::size_t j = j0; j < j_end; ++j) k(j, i) = k(i, j);
      }
    }
  }
  return k;
}

void gram_lower(const Matrix& x, const Kernel& kernel, Matrix& out) {
  const std::size_t n = x.rows();
  SY_ASSERT(out.rows() == n && out.cols() == n, "gram_lower: output shape");
  const double gamma = kernel.effective_gamma(x.cols());
  for (std::size_t i = 0; i < n; ++i) {
    kernel_row(x, 0, i + 1, x.row(i), kernel, gamma, out.row(i).data());
  }
}

std::vector<double> kernel_vector(const Matrix& x, std::span<const double> z,
                                  const Kernel& kernel) {
  std::vector<double> out(x.rows());
  kernel_vector(x, z, kernel, out);
  return out;
}

void kernel_vector(const Matrix& x, std::span<const double> z,
                   const Kernel& kernel, std::span<double> out) {
  SY_ASSERT(x.rows() == 0 || z.size() == x.cols(),
            "kernel_vector: dimension mismatch");
  SY_ASSERT(out.size() == x.rows(), "kernel_vector: output size mismatch");
  if (x.rows() == 0) return;
  kernel_row(x, 0, x.rows(), z, kernel, kernel.effective_gamma(x.cols()),
             out.data());
}

}  // namespace sy::ml
