// Kernels for KRR and SVM.
//
// The paper's Eq. 5-7 formulate KRR with an arbitrary feature map phi; its
// complexity argument (§V-H1) uses the identity kernel. We provide both the
// identity (linear) kernel — enabling the primal O(M^2.373) path — and the
// RBF kernel, which gives the best accuracy on standardized features.
#pragma once

#include <span>
#include <string>

#include "ml/matrix.h"

namespace sy::ml {

enum class KernelType { kLinear, kRbf };

struct Kernel {
  KernelType type{KernelType::kRbf};
  // RBF: k(x,z) = exp(-gamma * ||x - z||^2). gamma <= 0 means "auto":
  // gamma = 1 / dim, the right scale for standardized features.
  double gamma{0.0};

  double operator()(std::span<const double> a, std::span<const double> b) const;
  double effective_gamma(std::size_t dim) const;
  std::string name() const;

  static Kernel linear() { return Kernel{KernelType::kLinear, 0.0}; }
  static Kernel rbf(double gamma = 0.0) { return Kernel{KernelType::kRbf, gamma}; }
};

// Gram matrix K[i][j] = k(x_i, x_j) over the rows of `x`.
Matrix gram_matrix(const Matrix& x, const Kernel& kernel);

// Cross-kernel vector k_i = k(x_i, z) for all rows of `x`: one fused row
// kernel pass over every row of `x`.
std::vector<double> kernel_vector(const Matrix& x, std::span<const double> z,
                                  const Kernel& kernel);

// Same, written into `out` (length x.rows()), so a caller scoring many
// windows against the same rows reuses one scratch buffer.
void kernel_vector(const Matrix& x, std::span<const double> z,
                   const Kernel& kernel, std::span<double> out);

}  // namespace sy::ml
