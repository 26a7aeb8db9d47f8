#include "ml/krr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "ml/dataset.h"
#include "num/backend.h"
#include "num/kernels.h"
#include "util/rng.h"

namespace sy::ml {
namespace {

// Two Gaussian blobs, labels +-1.
Dataset blobs(std::size_t n_per_class, double separation, std::size_t dim,
              util::Rng& rng) {
  Dataset data;
  std::vector<double> x(dim);
  for (std::size_t i = 0; i < n_per_class; ++i) {
    for (auto& v : x) v = rng.gaussian(separation / 2.0, 1.0);
    data.add(x, +1);
    for (auto& v : x) v = rng.gaussian(-separation / 2.0, 1.0);
    data.add(x, -1);
  }
  return data;
}

TEST(Krr, SeparatesBlobsWithRbf) {
  util::Rng rng(41);
  const Dataset train = blobs(100, 3.0, 4, rng);
  KrrClassifier krr{KrrConfig{}};
  krr.fit(train.x, train.y);

  const Dataset test = blobs(200, 3.0, 4, rng);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    if (krr.predict(test.x.row(i)) == test.y[i]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(test.size()),
            0.95);
}

TEST(Krr, DualEqualsPrimalForLinearKernel) {
  // The paper's Appendix proves Eq. 6 == Eq. 7; verify numerically.
  util::Rng rng(42);
  const Dataset train = blobs(60, 2.0, 5, rng);

  KrrConfig dual_config;
  dual_config.kernel = Kernel::linear();
  dual_config.path = KrrSolvePath::kDual;
  KrrClassifier dual(dual_config);
  dual.fit(train.x, train.y);

  KrrConfig primal_config;
  primal_config.kernel = Kernel::linear();
  primal_config.path = KrrSolvePath::kPrimal;
  KrrClassifier primal(primal_config);
  primal.fit(train.x, train.y);

  util::Rng probe_rng(43);
  std::vector<double> x(5);
  for (int trial = 0; trial < 50; ++trial) {
    for (auto& v : x) v = probe_rng.gaussian(0.0, 2.0);
    EXPECT_NEAR(dual.decision(x), primal.decision(x), 1e-8);
  }
}

TEST(Krr, PrimalRequiresLinearKernel) {
  KrrConfig config;
  config.kernel = Kernel::rbf();
  config.path = KrrSolvePath::kPrimal;
  EXPECT_THROW(KrrClassifier{config}, std::invalid_argument);
}

TEST(Krr, RejectsBadInputs) {
  KrrClassifier krr{KrrConfig{}};
  EXPECT_THROW(krr.fit(Matrix(), {}), std::invalid_argument);
  Matrix x(2, 2);
  EXPECT_THROW(krr.fit(x, {1, 2}), std::invalid_argument);  // label not +-1
  EXPECT_THROW((void)krr.decision(std::vector<double>{1.0, 2.0}),
               std::logic_error);  // untrained
  KrrConfig bad;
  bad.rho = 0.0;
  EXPECT_THROW(KrrClassifier{bad}, std::invalid_argument);
}

TEST(Krr, PackUnpackRoundTripDual) {
  util::Rng rng(44);
  const Dataset train = blobs(40, 2.5, 3, rng);
  KrrClassifier krr{KrrConfig{}};
  krr.fit(train.x, train.y);
  const auto packed = krr.pack();
  const KrrClassifier restored = KrrClassifier::unpack(packed);

  std::vector<double> x(3);
  for (int trial = 0; trial < 20; ++trial) {
    for (auto& v : x) v = rng.gaussian();
    EXPECT_NEAR(krr.decision(x), restored.decision(x), 1e-12);
  }
}

TEST(Krr, PackUnpackRoundTripPrimal) {
  util::Rng rng(45);
  const Dataset train = blobs(40, 2.5, 3, rng);
  KrrConfig config;
  config.kernel = Kernel::linear();
  KrrClassifier krr(config);
  krr.fit(train.x, train.y);
  const auto packed = krr.pack();
  const KrrClassifier restored = KrrClassifier::unpack(packed);
  std::vector<double> x(3);
  for (int trial = 0; trial < 20; ++trial) {
    for (auto& v : x) v = rng.gaussian();
    EXPECT_NEAR(krr.decision(x), restored.decision(x), 1e-12);
  }
}

TEST(Krr, UnpackRejectsCorrupt) {
  EXPECT_THROW((void)KrrClassifier::unpack(std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(Krr, IncrementalAddMatchesFullRefit) {
  // Woodbury add_sample must equal batch training on the extended set.
  util::Rng rng(46);
  Dataset train = blobs(30, 2.0, 4, rng);

  KrrConfig config;
  config.kernel = Kernel::linear();
  KrrClassifier incremental(config);
  incremental.fit(train.x, train.y);

  // New sample.
  const std::vector<double> extra{0.5, -0.2, 1.0, 0.3};
  incremental.add_sample(extra, +1);

  Dataset extended = train;
  extended.add(extra, +1);
  KrrClassifier batch(config);
  batch.fit(extended.x, extended.y);

  std::vector<double> x(4);
  for (int trial = 0; trial < 30; ++trial) {
    for (auto& v : x) v = rng.gaussian();
    EXPECT_NEAR(incremental.decision(x), batch.decision(x), 1e-8);
  }
}

TEST(Krr, IncrementalRemoveUndoesAdd) {
  // Exact unlearning: add then remove returns the original model.
  util::Rng rng(47);
  const Dataset train = blobs(30, 2.0, 4, rng);
  KrrConfig config;
  config.kernel = Kernel::linear();
  KrrClassifier krr(config);
  krr.fit(train.x, train.y);

  std::vector<double> probe(4);
  for (auto& v : probe) v = rng.gaussian();
  const double before = krr.decision(probe);

  const std::vector<double> extra{1.0, 2.0, -1.0, 0.0};
  krr.add_sample(extra, -1);
  EXPECT_NE(krr.decision(probe), before);
  krr.remove_sample(extra, -1);
  EXPECT_NEAR(krr.decision(probe), before, 1e-8);
}

TEST(Krr, IncrementalRequiresPrimal) {
  util::Rng rng(48);
  const Dataset train = blobs(20, 2.0, 3, rng);
  KrrClassifier krr{KrrConfig{}};  // RBF -> dual
  krr.fit(train.x, train.y);
  EXPECT_THROW(krr.add_sample(std::vector<double>{1, 2, 3}, 1),
               std::logic_error);
}

TEST(Krr, RhoControlsShrinkage) {
  // Larger rho shrinks decision magnitudes toward zero.
  util::Rng rng(49);
  const Dataset train = blobs(50, 3.0, 3, rng);
  KrrConfig small, large;
  small.rho = 0.01;
  large.rho = 100.0;
  KrrClassifier a(small), b(large);
  a.fit(train.x, train.y);
  b.fit(train.x, train.y);

  double mag_a = 0.0, mag_b = 0.0;
  std::vector<double> x(3);
  for (int trial = 0; trial < 50; ++trial) {
    for (auto& v : x) v = rng.gaussian(1.5, 1.0);
    mag_a += std::abs(a.decision(x));
    mag_b += std::abs(b.decision(x));
  }
  EXPECT_GT(mag_a, mag_b);
}

// --- Exact dual scoring contract (docs/ARCHITECTURE.md, contract 1) -------
// decision() and decision_batch() score each window through one row-kernel
// pass over all N training rows, then num::dot against alpha. N values
// straddle the 8-row group width of the SIMD row kernels.

constexpr std::size_t kDualSizes[] = {1, 7, 8, 9, 64, 65, 800};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Runs the enclosing scope on `backend`, restoring the previous one on exit.
class BackendScope {
 public:
  explicit BackendScope(num::Backend backend) : saved_(num::active_backend()) {
    num::set_backend(backend);
  }
  ~BackendScope() { num::set_backend(saved_); }
  BackendScope(const BackendScope&) = delete;
  BackendScope& operator=(const BackendScope&) = delete;

 private:
  num::Backend saved_;
};

// Exact dual RBF model over `n` rows of dimension `dim`, fit on the scalar
// backend so every backend scores the same alpha and X.
KrrClassifier dual_rbf_model(std::size_t n, std::size_t dim, util::Rng& rng) {
  Dataset data;
  std::vector<double> x(dim);
  for (std::size_t i = 0; i < n; ++i) {
    const int label = i % 2 == 0 ? +1 : -1;
    for (auto& v : x) v = rng.gaussian(0.5 * label, 1.0);
    data.add(x, label);
  }
  const BackendScope scalar(num::Backend::kScalar);
  KrrClassifier krr{KrrConfig{}};
  krr.fit(data.x, data.y);
  EXPECT_FALSE(krr.is_primal());
  return krr;
}

Matrix random_windows(std::size_t rows, std::size_t dim, util::Rng& rng) {
  Matrix z(rows, dim);
  for (std::size_t i = 0; i < rows; ++i) {
    for (auto& v : z.row(i)) v = rng.gaussian(0.0, 1.5);
  }
  return z;
}

// The reference dual score, rebuilt from pack() (the dual layout: kernel
// type, gamma, rho, mode, n, m, alpha..., X row-major...): the ascending
// sum acc += alpha_i * exp(-gamma * ||x_i - z||^2), each kernel value from
// the scalar row kernel. `magnitude` receives sum_i |alpha_i k_i|, the
// scale a dot product's rounding error is relative to.
double reference_decision(const std::vector<double>& packed,
                          std::span<const double> z, double* magnitude) {
  const auto n = static_cast<std::size_t>(packed[4]);
  const auto m = static_cast<std::size_t>(packed[5]);
  const double* alpha = packed.data() + 6;
  const double* x = alpha + n;
  const double gamma = Kernel::rbf(packed[1]).effective_gamma(m);
  double acc = 0.0;
  *magnitude = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double k = 0.0;
    num::scalar::rbf_row_kernel(x + i * m, 1, m, z.data(), m, gamma, &k);
    acc += alpha[i] * k;
    *magnitude += std::abs(alpha[i] * k);
  }
  return acc;
}

TEST(KrrDualScoring, BatchPositionNeverChangesBitsOnAnyBackend) {
  util::Rng rng(60);
  constexpr std::size_t kBatch = 37;
  for (const std::size_t n : kDualSizes) {
    const KrrClassifier krr = dual_rbf_model(n, 28, rng);
    const Matrix windows = random_windows(kBatch, 28, rng);
    for (const num::Backend backend : num::all_backends()) {
      if (!num::backend_available(backend)) continue;
      const BackendScope scope(backend);
      std::vector<double> single(kBatch);
      for (std::size_t j = 0; j < kBatch; ++j) {
        single[j] = krr.decision(windows.row(j));
      }
      // Rotate the batch so every window visits every position.
      for (std::size_t shift = 0; shift < kBatch; ++shift) {
        Matrix rotated(kBatch, 28);
        for (std::size_t p = 0; p < kBatch; ++p) {
          const auto src = windows.row((p + shift) % kBatch);
          std::copy(src.begin(), src.end(), rotated.row(p).begin());
        }
        const std::vector<double> batch = krr.decision_batch(rotated);
        ASSERT_EQ(batch.size(), kBatch);
        for (std::size_t p = 0; p < kBatch; ++p) {
          ASSERT_EQ(bits(batch[p]), bits(single[(p + shift) % kBatch]))
              << "n=" << n << " backend=" << num::backend_name(backend)
              << " shift=" << shift << " position=" << p;
        }
      }
    }
  }
}

TEST(KrrDualScoring, ScalarDecisionMatchesPackedReferenceBitwise) {
  util::Rng rng(61);
  const BackendScope scalar(num::Backend::kScalar);
  for (const std::size_t dim : {3u, 14u, 28u}) {
    for (const std::size_t n : kDualSizes) {
      const KrrClassifier krr = dual_rbf_model(n, dim, rng);
      const std::vector<double> packed = krr.pack();
      const Matrix windows = random_windows(16, dim, rng);
      const std::vector<double> batch = krr.decision_batch(windows);
      for (std::size_t j = 0; j < windows.rows(); ++j) {
        double magnitude = 0.0;
        const double want =
            reference_decision(packed, windows.row(j), &magnitude);
        EXPECT_EQ(bits(krr.decision(windows.row(j))), bits(want))
            << "n=" << n << " dim=" << dim << " window=" << j;
        EXPECT_EQ(bits(batch[j]), bits(want))
            << "n=" << n << " dim=" << dim << " window=" << j;
      }
    }
  }
}

TEST(KrrDualScoring, SimdDecisionWithinToleranceOfScalar) {
  util::Rng rng(62);
  for (const std::size_t n : kDualSizes) {
    const KrrClassifier krr = dual_rbf_model(n, 28, rng);
    const std::vector<double> packed = krr.pack();
    const Matrix windows = random_windows(16, 28, rng);
    for (const num::Backend backend : num::all_backends()) {
      if (backend == num::Backend::kScalar ||
          !num::backend_available(backend)) {
        continue;
      }
      const BackendScope scope(backend);
      for (std::size_t j = 0; j < windows.rows(); ++j) {
        double magnitude = 0.0;
        const double want =
            reference_decision(packed, windows.row(j), &magnitude);
        EXPECT_NEAR(krr.decision(windows.row(j)), want,
                    1e-12 * std::max(1.0, magnitude))
            << "n=" << n << " backend=" << num::backend_name(backend)
            << " window=" << j;
      }
    }
  }
}

TEST(Kernel, SymmetryAndGram) {
  util::Rng rng(50);
  Matrix x(6, 4);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 4; ++j) x(i, j) = rng.gaussian();
  }
  for (const Kernel kernel : {Kernel::linear(), Kernel::rbf()}) {
    const Matrix k = gram_matrix(x, kernel);
    for (std::size_t i = 0; i < 6; ++i) {
      for (std::size_t j = 0; j < 6; ++j) {
        EXPECT_DOUBLE_EQ(k(i, j), k(j, i));
      }
    }
    if (kernel.type == KernelType::kRbf) {
      for (std::size_t i = 0; i < 6; ++i) EXPECT_DOUBLE_EQ(k(i, i), 1.0);
    }
  }
}

TEST(Kernel, RbfRange) {
  const Kernel k = Kernel::rbf();
  const std::vector<double> a{0.0, 0.0};
  const std::vector<double> b{10.0, 10.0};
  EXPECT_DOUBLE_EQ(k(a, a), 1.0);
  EXPECT_GT(k(a, b), 0.0);
  EXPECT_LT(k(a, b), 1e-10);
}

}  // namespace
}  // namespace sy::ml
