// Approximate-KRR feature maps (ml/krr_approx.h) and the KrrClassifier
// approximate fit path: determinism of the maps and landmark selection,
// kernel-approximation quality, batch-vs-single bit identity, and
// pack/unpack round trips for both modes.
#include "ml/krr_approx.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "ml/dataset.h"
#include "ml/kernel.h"
#include "ml/krr.h"
#include "util/rng.h"

namespace sy::ml {
namespace {

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

double accuracy(const KrrClassifier& model, const Dataset& test) {
  std::size_t correct = 0;
  const std::vector<double> scores = model.decision_batch(test.x);
  for (std::size_t i = 0; i < test.size(); ++i) {
    const int predicted = scores[i] >= 0.0 ? 1 : -1;
    if (predicted == test.y[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(test.size());
}

// --- TrainingMode plumbing -------------------------------------------------

TEST(TrainingMode, ParseAndToStringRoundTrip) {
  EXPECT_EQ(parse_training_mode("exact"), TrainingMode::kExact);
  EXPECT_EQ(parse_training_mode("nystrom"), TrainingMode::kNystrom);
  EXPECT_EQ(parse_training_mode("rff"), TrainingMode::kRff);
  EXPECT_EQ(parse_training_mode("Nystrom"), std::nullopt);
  EXPECT_EQ(parse_training_mode(""), std::nullopt);
  EXPECT_EQ(to_string(TrainingMode::kExact), "exact");
  EXPECT_EQ(to_string(TrainingMode::kNystrom), "nystrom");
  EXPECT_EQ(to_string(TrainingMode::kRff), "rff");
}

// --- Landmark selection ----------------------------------------------------

TEST(LandmarkSelection, DeterministicDistinctAscendingInRange) {
  const auto a = sample_landmark_indices(10000, 64, 77);
  const auto b = sample_landmark_indices(10000, 64, 77);
  EXPECT_EQ(a, b);  // pure function of (population, count, seed)
  ASSERT_EQ(a.size(), 64u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_LT(a[i], 10000u);
    if (i > 0) {
      EXPECT_LT(a[i - 1], a[i]);  // ascending implies distinct
    }
  }
  // Different seeds pick different sets (astronomically unlikely otherwise).
  EXPECT_NE(a, sample_landmark_indices(10000, 64, 78));
}

TEST(LandmarkSelection, CountAtOrAbovePopulationReturnsAll) {
  for (const std::size_t count : {5u, 9u, 100u}) {
    const auto idx = sample_landmark_indices(5, count, 1);
    ASSERT_EQ(idx.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(idx[i], i);
  }
}

// --- RFF map ---------------------------------------------------------------

TEST(RffFeatureMap, DeterministicAndBitwiseReproducible) {
  const auto a = RffFeatureMap::build(14, 128, 1.0 / 14.0, 9);
  const auto b = RffFeatureMap::build(14, 128, 1.0 / 14.0, 9);
  ASSERT_EQ(a->output_dim(), 128u);
  ASSERT_EQ(a->input_dim(), 14u);
  EXPECT_EQ(a->mode(), TrainingMode::kRff);
  const auto& fa = a->frequencies();
  const auto& fb = b->frequencies();
  ASSERT_EQ(fa.rows(), 64u);
  EXPECT_EQ(0, std::memcmp(fa.data().data(), fb.data().data(),
                           fa.rows() * fa.cols() * sizeof(double)));

  util::Rng rng(10);
  std::vector<double> x(14), za(128), zb(128);
  for (auto& v : x) v = rng.gaussian();
  a->transform(x, za);
  b->transform(x, zb);
  EXPECT_EQ(0, std::memcmp(za.data(), zb.data(), za.size() * sizeof(double)));
}

TEST(RffFeatureMap, InnerProductApproximatesRbfKernel) {
  // Monte-Carlo convergence: with 2048 features the RFF estimator's std
  // error is ~ 1/sqrt(1024) ~ 3%, so a 0.05 absolute bound is comfortable.
  const std::size_t dim = 8;
  const double gamma = 1.0 / static_cast<double>(dim);
  const auto map = RffFeatureMap::build(dim, 2048, gamma, 123);
  const Kernel kernel = Kernel::rbf(gamma);

  util::Rng rng(11);
  std::vector<double> x(dim), y(dim), zx(2048), zy(2048);
  for (int trial = 0; trial < 30; ++trial) {
    for (auto& v : x) v = rng.gaussian();
    for (auto& v : y) v = rng.gaussian();
    map->transform(x, zx);
    map->transform(y, zy);
    double ip = 0.0;
    for (std::size_t j = 0; j < zx.size(); ++j) ip += zx[j] * zy[j];
    EXPECT_NEAR(ip, kernel(x, y), 0.05) << "trial " << trial;
  }
}

TEST(RffFeatureMap, RejectsBadArguments) {
  EXPECT_THROW(RffFeatureMap::build(0, 64, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(RffFeatureMap::build(8, 0, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(RffFeatureMap::build(8, 63, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(RffFeatureMap::build(8, 64, 0.0, 1), std::invalid_argument);
}

// --- Nystrom map -----------------------------------------------------------

TEST(NystromFeatureMap, ExactOnLandmarkSubspace) {
  // With the landmarks equal to the full point set, the Nystrom kernel
  // k_m(x)^T (K_mm + jitter)^-1 k_m(y) reproduces k(x, y) for any x, y
  // in the span — up to the 1e-8 jitter.
  util::Rng rng(12);
  const std::size_t n = 40, dim = 6;
  Matrix points(n, dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& v : points.row(i)) v = rng.gaussian();
  }
  const Kernel kernel = Kernel::rbf(1.0 / static_cast<double>(dim));
  const auto map = NystromFeatureMap::build(points, kernel);
  ASSERT_EQ(map->output_dim(), n);

  std::vector<double> zx(n), zy(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      map->transform(points.row(i), zx);
      map->transform(points.row(j), zy);
      double ip = 0.0;
      for (std::size_t k = 0; k < n; ++k) ip += zx[k] * zy[k];
      EXPECT_NEAR(ip, kernel(points.row(i), points.row(j)), 1e-5)
          << "(" << i << "," << j << ")";
    }
  }
}

TEST(NystromFeatureMap, JitterEscalationSurvivesDuplicateLandmarks) {
  // Duplicate rows make K_mm exactly singular; the build must escalate the
  // jitter instead of throwing.
  Matrix landmarks(3, 2);
  landmarks(0, 0) = 1.0;
  landmarks(0, 1) = 2.0;
  landmarks(1, 0) = 1.0;
  landmarks(1, 1) = 2.0;  // duplicate of row 0
  landmarks(2, 0) = -1.0;
  landmarks(2, 1) = 0.5;
  const auto map = NystromFeatureMap::build(landmarks, Kernel::rbf(0.5));
  std::vector<double> z(3);
  map->transform(landmarks.row(2), z);
  for (const double v : z) EXPECT_TRUE(std::isfinite(v));
}

// --- Classifier integration ------------------------------------------------

TEST(KrrApprox, ApproximateFitTracksExactAccuracyOnBlobs) {
  util::Rng rng(41);
  const Dataset train = blobs(150, 3.0, 6, rng);
  const Dataset test = blobs(300, 3.0, 6, rng);

  KrrClassifier exact{KrrConfig{}};
  exact.fit(train.x, train.y);
  const double exact_acc = accuracy(exact, test);
  ASSERT_GT(exact_acc, 0.95);

  for (const TrainingMode mode : {TrainingMode::kRff, TrainingMode::kNystrom}) {
    KrrConfig config;
    config.mode = mode;
    config.approx_dim = 128;
    KrrClassifier approx(config);
    approx.fit(train.x, train.y);
    EXPECT_TRUE(approx.is_approximate());
    EXPECT_GT(accuracy(approx, test), exact_acc - 0.02) << to_string(mode);
  }
}

TEST(KrrApprox, RefitIsBitwiseIdentical) {
  util::Rng rng(42);
  const Dataset train = blobs(80, 2.5, 5, rng);
  for (const TrainingMode mode : {TrainingMode::kRff, TrainingMode::kNystrom}) {
    KrrConfig config;
    config.mode = mode;
    config.approx_dim = 64;
    KrrClassifier a(config), b(config);
    a.fit(train.x, train.y);
    b.fit(train.x, train.y);
    const auto wa = a.feature_weights();
    const auto wb = b.feature_weights();
    ASSERT_EQ(wa.size(), wb.size());
    EXPECT_EQ(0, std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(double)))
        << to_string(mode);
    EXPECT_EQ(a.pack(), b.pack()) << to_string(mode);
  }
}

TEST(KrrApprox, BatchDecisionBitIdenticalToSingle) {
  util::Rng rng(43);
  const Dataset train = blobs(60, 2.0, 5, rng);
  const Dataset test = blobs(40, 2.0, 5, rng);
  for (const TrainingMode mode : {TrainingMode::kRff, TrainingMode::kNystrom}) {
    KrrConfig config;
    config.mode = mode;
    config.approx_dim = 32;
    KrrClassifier model(config);
    model.fit(train.x, train.y);
    const std::vector<double> batch = model.decision_batch(test.x);
    for (std::size_t i = 0; i < test.size(); ++i) {
      EXPECT_EQ(batch[i], model.decision(test.x.row(i)))
          << to_string(mode) << " row " << i;
    }
  }
}

TEST(KrrApprox, PackUnpackRoundTripsBitwise) {
  util::Rng rng(44);
  const Dataset train = blobs(60, 2.0, 5, rng);
  const Dataset test = blobs(25, 2.0, 5, rng);
  for (const TrainingMode mode : {TrainingMode::kRff, TrainingMode::kNystrom}) {
    KrrConfig config;
    config.mode = mode;
    config.approx_dim = 32;
    KrrClassifier model(config);
    model.fit(train.x, train.y);

    const std::vector<double> packed = model.pack();
    const KrrClassifier loaded = KrrClassifier::unpack(packed);
    EXPECT_TRUE(loaded.is_approximate());
    EXPECT_EQ(loaded.config().mode, mode);
    EXPECT_EQ(loaded.pack(), packed);  // stable under re-serialization
    for (std::size_t i = 0; i < test.size(); ++i) {
      EXPECT_EQ(loaded.decision(test.x.row(i)), model.decision(test.x.row(i)))
          << to_string(mode) << " row " << i;
    }
  }
}

TEST(KrrApprox, UnpackRejectsCorruptBlobs) {
  util::Rng rng(45);
  const Dataset train = blobs(30, 2.0, 4, rng);
  KrrConfig config;
  config.mode = TrainingMode::kRff;
  config.approx_dim = 16;
  KrrClassifier model(config);
  model.fit(train.x, train.y);
  std::vector<double> packed = model.pack();
  packed.pop_back();
  EXPECT_THROW(KrrClassifier::unpack(packed), std::invalid_argument);
  EXPECT_THROW(KrrFeatureMap::unpack(std::vector<double>{9.0, 1.0}),
               std::invalid_argument);
}

TEST(KrrApprox, NameCarriesModeAndDimension) {
  KrrConfig rff;
  rff.mode = TrainingMode::kRff;
  rff.approx_dim = 256;
  EXPECT_EQ(KrrClassifier(rff).name(), "KRR(rbf,rff-256)");
  KrrConfig nys;
  nys.mode = TrainingMode::kNystrom;
  nys.approx_dim = 100;
  EXPECT_EQ(KrrClassifier(nys).name(), "KRR(rbf,nystrom-100)");
}

TEST(KrrApprox, ConstructorValidatesApproxConfig) {
  KrrConfig odd;
  odd.mode = TrainingMode::kRff;
  odd.approx_dim = 33;  // rff needs an even feature count
  EXPECT_THROW(KrrClassifier{odd}, std::invalid_argument);
  KrrConfig zero;
  zero.mode = TrainingMode::kNystrom;
  zero.approx_dim = 0;
  EXPECT_THROW(KrrClassifier{zero}, std::invalid_argument);
  KrrConfig linear_rff;
  linear_rff.mode = TrainingMode::kRff;
  linear_rff.kernel = Kernel::linear();  // Bochner needs the RBF kernel
  EXPECT_THROW(KrrClassifier{linear_rff}, std::invalid_argument);
}

}  // namespace
}  // namespace sy::ml
