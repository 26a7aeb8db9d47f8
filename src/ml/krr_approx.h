// Approximate-KRR feature maps: random Fourier features and Nystrom
// landmarks (the population-size-independent training path, ROADMAP
// "Approximate KRR").
//
// Exact KRR trains through the N x N Gram system (Eq. 6), so learning from a
// large impostor population costs O(N^3). Both approximations replace the
// kernel with an explicit low-dimensional feature map z: R^M -> R^D chosen
// so <z(x), z(y)> ~= k(x, y); training then solves the small D x D ridge
// system (Z^T Z + rho I) w = Z^T y through the existing blocked Cholesky,
// and scoring is one map application plus a dot product.
//
//   RffFeatureMap      z(x) = sqrt(1/F) * [cos(w_k.x), sin(w_k.x)]_{k<F},
//                      w_k ~ N(0, 2*gamma*I) — Bochner's theorem for the RBF
//                      kernel. Data-independent: fully determined by
//                      (dim, D, gamma, seed), so one map is shared across
//                      every user in a batch. Rows go through the fused
//                      num::rff_transform_row kernel.
//   NystromFeatureMap  z(x) = L_mm^-1 k_m(x) for landmark rows m, where
//                      K_mm + jitter = L_mm L_mm^T, so <z(x),z(y)> is the
//                      Nystrom kernel k_m(x)^T K_mm^-1 k_m(y). Landmarks are
//                      sampled deterministically (sample_landmark_indices)
//                      from the training rows or the merged COW snapshot.
//
// Determinism contract: every map is a pure function of its inputs — same
// (dim, gamma, D, seed) gives a bitwise-identical RFF map, same (landmarks,
// kernel) a bitwise-identical Nystrom map, and sample_landmark_indices is a
// stdlib-independent splitmix64 Fisher-Yates so the same (population, count,
// seed) always selects the same landmark set (tests/ml_krr_approx_test).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ml/kernel.h"
#include "ml/matrix.h"

namespace sy::ml {

// The KRR training-mode knob wired through core::TrainingConfig ->
// core::AuthServer / serve::AuthGateway. kExact is the default and keeps the
// historical dual/primal paths bit-identical.
enum class TrainingMode : int { kExact = 0, kNystrom = 1, kRff = 2 };

std::string to_string(TrainingMode mode);
// "exact" | "nystrom" | "rff" -> mode; nullopt for anything else.
std::optional<TrainingMode> parse_training_mode(std::string_view name);

// An explicit feature map z: R^input_dim -> R^output_dim approximating a
// kernel. Immutable once built; shared across threads via shared_ptr<const>.
class KrrFeatureMap {
 public:
  virtual ~KrrFeatureMap() = default;

  // kRff or kNystrom (never kExact).
  virtual TrainingMode mode() const = 0;
  virtual std::size_t input_dim() const = 0;
  virtual std::size_t output_dim() const = 0;

  // Writes z(x) into `out` (out.size() == output_dim()). A row transforms
  // identically alone or inside any batch — transform(Matrix) is a row loop
  // over exactly this call.
  virtual void transform(std::span<const double> x,
                         std::span<double> out) const = 0;
  // All rows of `x` (n x input_dim) -> (n x output_dim).
  Matrix transform(const Matrix& x) const;

  // Self-contained serialization (embedded in KrrClassifier::pack).
  virtual std::vector<double> pack() const = 0;
  static std::shared_ptr<const KrrFeatureMap> unpack(
      std::span<const double> packed);
};

// Random Fourier features for the RBF kernel (paired cos/sin variant).
class RffFeatureMap final : public KrrFeatureMap {
 public:
  // `n_features` must be positive and even (cos/sin pairs); `gamma` is the
  // resolved RBF bandwidth (Kernel::effective_gamma — never the raw "auto"
  // 0). Frequencies are drawn N(0, 2*gamma) from util::Rng(seed).
  static std::shared_ptr<const RffFeatureMap> build(std::size_t dim,
                                                    std::size_t n_features,
                                                    double gamma,
                                                    std::uint64_t seed);

  TrainingMode mode() const override { return TrainingMode::kRff; }
  std::size_t input_dim() const override { return dim_; }
  std::size_t output_dim() const override { return 2 * freqs_.rows(); }
  void transform(std::span<const double> x,
                 std::span<double> out) const override;
  std::vector<double> pack() const override;

  const Matrix& frequencies() const { return freqs_; }

 private:
  RffFeatureMap() = default;
  friend class KrrFeatureMap;  // unpack

  std::size_t dim_{0};
  Matrix freqs_;  // F x dim, row k = w_k
  double scale_{0.0};
};

// Nystrom landmark approximation for any kernel.
class NystromFeatureMap final : public KrrFeatureMap {
 public:
  // `landmarks` (L x dim) are the basis rows, already in the space the map
  // will be applied in (the callers transform raw landmarks through the same
  // scaler as the inputs). A small deterministic jitter is added to K_mm's
  // diagonal before factorization; duplicated landmark rows escalate it (x10
  // up to 1e-2) instead of failing the Cholesky.
  static std::shared_ptr<const NystromFeatureMap> build(Matrix landmarks,
                                                        Kernel kernel);

  TrainingMode mode() const override { return TrainingMode::kNystrom; }
  std::size_t input_dim() const override { return landmarks_.cols(); }
  std::size_t output_dim() const override { return landmarks_.rows(); }
  void transform(std::span<const double> x,
                 std::span<double> out) const override;
  std::vector<double> pack() const override;

  const Matrix& landmarks() const { return landmarks_; }
  const Kernel& kernel() const { return kernel_; }

 private:
  NystromFeatureMap() = default;
  friend class KrrFeatureMap;  // unpack

  Matrix landmarks_;  // L x dim
  Kernel kernel_{};
  Matrix chol_;  // lower-triangular L_mm: K_mm + jitter = L_mm L_mm^T
};

// Deterministic sample of `count` distinct indices from [0, population),
// returned ascending. Partial Fisher-Yates over a sparse index map driven by
// util::splitmix64 — no std distribution involved, so the selection is
// identical across processes, platforms and standard libraries for a given
// (population, count, seed). The bounded draw uses a modulo reduction; the
// bias is O(count / 2^64), irrelevant for landmark selection. When
// count >= population, returns all indices.
std::vector<std::size_t> sample_landmark_indices(std::size_t population,
                                                 std::size_t count,
                                                 std::uint64_t seed);

}  // namespace sy::ml
