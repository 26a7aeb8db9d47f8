#include "ml/krr.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ml/linalg.h"
#include "num/kernels.h"

namespace sy::ml {

KrrClassifier::KrrClassifier(KrrConfig config) : config_(config) {
  if (config_.rho <= 0.0) {
    throw std::invalid_argument("KrrClassifier: rho must be positive");
  }
  if (config_.path == KrrSolvePath::kPrimal &&
      config_.kernel.type != KernelType::kLinear) {
    throw std::invalid_argument(
        "KrrClassifier: the primal path (Eq. 7) requires the linear kernel");
  }
  if (config_.mode != TrainingMode::kExact) {
    if (config_.approx_dim == 0) {
      throw std::invalid_argument(
          "KrrClassifier: approximate modes need approx_dim > 0");
    }
    if (config_.mode == TrainingMode::kRff &&
        (config_.kernel.type != KernelType::kRbf ||
         config_.approx_dim % 2 != 0)) {
      throw std::invalid_argument(
          "KrrClassifier: rff mode needs the RBF kernel and an even "
          "approx_dim");
    }
  }
}

void KrrClassifier::fit(const Matrix& x, const std::vector<int>& y) {
  if (x.rows() == 0 || x.rows() != y.size()) {
    throw std::invalid_argument("KrrClassifier::fit: bad training set");
  }
  std::vector<double> yd(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] != 1 && y[i] != -1) {
      throw std::invalid_argument("KrrClassifier::fit: labels must be +-1");
    }
    yd[i] = static_cast<double>(y[i]);
  }

  if (config_.mode != TrainingMode::kExact) {
    fit_approx(x, yd);
    trained_ = true;
    return;
  }
  const bool primal =
      config_.path == KrrSolvePath::kPrimal ||
      (config_.path == KrrSolvePath::kAuto &&
       config_.kernel.type == KernelType::kLinear);
  if (primal) {
    fit_primal(x, yd);
  } else {
    fit_dual(x, yd);
  }
  trained_ = true;
}

void KrrClassifier::fit_dual(const Matrix& x, std::span<const double> y) {
  train_x_ = x;
  // K + rho I is built lower-triangle-only, straight into the buffer the
  // Cholesky factors in place: no mirrored upper half, no second N x N
  // copy. Same entries and factor as gram_matrix + add_diagonal +
  // solve_spd.
  const std::size_t n = x.rows();
  Matrix l(n, n);
  gram_lower(x, config_.kernel, l);
  for (std::size_t i = 0; i < n; ++i) l(i, i) += config_.rho;
  if (num::cholesky_inplace(l.data().data(), n, n) != n) {
    throw std::runtime_error("cholesky: matrix not positive definite");
  }
  alpha_ = cholesky_solve(l, y);
  weights_.reset();
}

void KrrClassifier::fit_primal(const Matrix& x, std::span<const double> y) {
  const std::size_t m = x.cols();
  // Gram in feature space: X^T X + rho I_M (M x M), accumulated sample by
  // sample as rank-one axpy updates of each lower-triangular row.
  Matrix g(m, m);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const auto row = x.row(i);
    for (std::size_t a = 0; a < m; ++a) {
      const double ra = row[a];
      if (ra == 0.0) continue;
      num::axpy(ra, row.first(a + 1), g.row(a).first(a + 1));
    }
  }
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = 0; b < a; ++b) g(b, a) = g(a, b);
  }
  g.add_diagonal(config_.rho);

  xty_.assign(m, 0.0);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    num::axpy(y[i], x.row(i), xty_);
  }

  inv_gram_ = invert_spd(g);
  weights_ = inv_gram_ * std::span<const double>(xty_);
  train_x_ = Matrix();
  alpha_.clear();
}

void KrrClassifier::fit_approx(const Matrix& x, std::span<const double> y) {
  // Self-contained approximate fit (the analysis/eval path): build the map
  // from this training set and the config seed, then solve the D x D ridge
  // system (Z^T Z + rho I) w = Z^T y. The serving path instead assembles
  // models through from_feature_model with a map shared across users.
  const std::size_t dim = x.cols();
  Kernel resolved = config_.kernel;
  resolved.gamma = config_.kernel.effective_gamma(dim);
  if (config_.mode == TrainingMode::kRff) {
    feature_map_ = RffFeatureMap::build(dim, config_.approx_dim,
                                        resolved.gamma, config_.approx_seed);
  } else {
    const auto idx = sample_landmark_indices(
        x.rows(), std::min(config_.approx_dim, x.rows()),
        config_.approx_seed);
    feature_map_ = NystromFeatureMap::build(x.select_rows(idx), resolved);
  }

  const Matrix z = feature_map_->transform(x);
  const std::size_t d = z.cols();
  // Z^T Z + rho I via the same lower-triangle rank-one accumulation as the
  // primal path, then w = G^-1 Z^T y.
  Matrix g(d, d);
  for (std::size_t i = 0; i < z.rows(); ++i) {
    const auto row = z.row(i);
    for (std::size_t a = 0; a < d; ++a) {
      const double ra = row[a];
      if (ra == 0.0) continue;
      num::axpy(ra, row.first(a + 1), g.row(a).first(a + 1));
    }
  }
  for (std::size_t a = 0; a < d; ++a) {
    for (std::size_t b = 0; b < a; ++b) g(b, a) = g(a, b);
  }
  g.add_diagonal(config_.rho);

  std::vector<double> zty(d, 0.0);
  for (std::size_t i = 0; i < z.rows(); ++i) {
    num::axpy(y[i], z.row(i), zty);
  }
  feature_weights_ = solve_spd(g, zty);

  train_x_ = Matrix();
  alpha_.clear();
  weights_.reset();
}

KrrClassifier KrrClassifier::from_feature_model(
    KrrConfig config, std::shared_ptr<const KrrFeatureMap> map,
    std::vector<double> weights) {
  if (!map || weights.size() != map->output_dim()) {
    throw std::invalid_argument(
        "KrrClassifier::from_feature_model: weight/map dimension mismatch");
  }
  config.mode = map->mode();
  config.approx_dim = map->output_dim();
  KrrClassifier model(std::move(config));
  model.feature_map_ = std::move(map);
  model.feature_weights_ = std::move(weights);
  model.trained_ = true;
  return model;
}

double KrrClassifier::decision(std::span<const double> x) const {
  if (!trained_) throw std::logic_error("KrrClassifier: not trained");
  if (feature_map_) {
    std::vector<double> z(feature_map_->output_dim());
    feature_map_->transform(x, z);
    return dot(feature_weights_, z);
  }
  if (weights_) {
    return dot(*weights_, x);
  }
  // Exact dual (Eq. 6): one fused row-kernel pass over all N training rows,
  // then num::dot against alpha. decision_batch takes this same per-window
  // path, so a window scores bit-identically alone or at any batch position
  // on every backend. On the scalar backend num::dot is the ascending-i
  // accumulation of alpha_i * k(x_i, z).
  return num::dot(alpha_, kernel_vector(train_x_, x, config_.kernel));
}

std::vector<double> KrrClassifier::decision_batch(const Matrix& x) const {
  if (!trained_) throw std::logic_error("KrrClassifier: not trained");
  std::vector<double> out(x.rows());
  if (feature_map_) {
    // Row-wise map + dot: each row scores exactly as decision(x.row(i)) —
    // the map transforms rows independently (no batch-shaped reduction), so
    // batch-vs-single bit identity is structural.
    std::vector<double> z(feature_map_->output_dim());
    for (std::size_t i = 0; i < x.rows(); ++i) {
      feature_map_->transform(x.row(i), z);
      out[i] = dot(feature_weights_, z);
    }
    return out;
  }
  if (weights_) {
    for (std::size_t i = 0; i < x.rows(); ++i) out[i] = dot(*weights_, x.row(i));
    return out;
  }
  // Each window takes decision()'s path — one row-kernel pass over the
  // training rows, then num::dot — with one N-length scratch buffer reused
  // across the batch.
  std::vector<double> k(train_x_.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    kernel_vector(train_x_, x.row(i), config_.kernel, k);
    out[i] = num::dot(alpha_, k);
  }
  return out;
}

std::string KrrClassifier::name() const {
  if (config_.mode != TrainingMode::kExact) {
    return "KRR(" + config_.kernel.name() + "," + to_string(config_.mode) +
           "-" + std::to_string(config_.approx_dim) + ")";
  }
  return "KRR(" + config_.kernel.name() + ")";
}

std::unique_ptr<BinaryClassifier> KrrClassifier::clone_untrained() const {
  return std::make_unique<KrrClassifier>(config_);
}

std::span<const double> KrrClassifier::weights() const {
  if (!weights_) {
    throw std::logic_error("KrrClassifier::weights: dual model has no w");
  }
  return *weights_;
}

std::span<const double> KrrClassifier::feature_weights() const {
  if (!feature_map_) {
    throw std::logic_error(
        "KrrClassifier::feature_weights: exact model has no feature map");
  }
  return feature_weights_;
}

void KrrClassifier::rank_one_update(std::span<const double> x, double label,
                                    double sign) {
  // Sherman-Morrison: (A + sign * x x^T)^-1
  //   = A^-1 - sign * (A^-1 x)(x^T A^-1) / (1 + sign * x^T A^-1 x)
  const std::size_t m = x.size();
  if (inv_gram_.rows() != m) {
    throw std::logic_error("KrrClassifier: incremental update needs primal fit");
  }
  const std::vector<double> ax = inv_gram_ * x;
  const double denom = 1.0 + sign * dot(x, ax);
  if (std::abs(denom) < 1e-12) {
    throw std::runtime_error("KrrClassifier: singular incremental update");
  }
  const double scale = sign / denom;
  for (std::size_t a = 0; a < m; ++a) {
    num::axpy(-(scale * ax[a]), ax, inv_gram_.row(a));
  }
  num::axpy(sign * label, x, xty_);
  weights_ = inv_gram_ * std::span<const double>(xty_);
}

void KrrClassifier::add_sample(std::span<const double> x, int label) {
  if (!trained_ || !weights_) {
    throw std::logic_error("KrrClassifier::add_sample requires a primal model");
  }
  rank_one_update(x, static_cast<double>(label), +1.0);
}

void KrrClassifier::remove_sample(std::span<const double> x, int label) {
  if (!trained_ || !weights_) {
    throw std::logic_error(
        "KrrClassifier::remove_sample requires a primal model");
  }
  rank_one_update(x, static_cast<double>(label), -1.0);
}

std::vector<double> KrrClassifier::pack() const {
  if (!trained_) throw std::logic_error("KrrClassifier::pack: not trained");
  std::vector<double> out;
  // Layout: [kernel_type, gamma, rho, mode] where mode is 0 = dual,
  // 1 = primal (the historical is_primal flag, so old bundles stay
  // loadable), 2 = rff, 3 = nystrom. Then:
  //   dual:    n, m, alpha..., X row-major...
  //   primal:  dim, w...
  //   approx:  map_len, map..., dim, w...   (map per KrrFeatureMap::pack)
  out.push_back(static_cast<double>(config_.kernel.type));
  out.push_back(config_.kernel.gamma);
  out.push_back(config_.rho);
  if (feature_map_) {
    out.push_back(feature_map_->mode() == TrainingMode::kRff ? 2.0 : 3.0);
    const std::vector<double> map = feature_map_->pack();
    out.push_back(static_cast<double>(map.size()));
    out.insert(out.end(), map.begin(), map.end());
    out.push_back(static_cast<double>(feature_weights_.size()));
    out.insert(out.end(), feature_weights_.begin(), feature_weights_.end());
    return out;
  }
  out.push_back(weights_ ? 1.0 : 0.0);
  if (weights_) {
    out.push_back(static_cast<double>(weights_->size()));
    out.insert(out.end(), weights_->begin(), weights_->end());
  } else {
    out.push_back(static_cast<double>(train_x_.rows()));
    out.push_back(static_cast<double>(train_x_.cols()));
    out.insert(out.end(), alpha_.begin(), alpha_.end());
    const auto data = train_x_.data();
    out.insert(out.end(), data.begin(), data.end());
  }
  return out;
}

KrrClassifier KrrClassifier::unpack(std::span<const double> packed) {
  if (packed.size() < 5) {
    throw std::invalid_argument("KrrClassifier::unpack: truncated");
  }
  KrrConfig config;
  config.kernel.type = static_cast<KernelType>(static_cast<int>(packed[0]));
  config.kernel.gamma = packed[1];
  config.rho = packed[2];
  const int mode_code = static_cast<int>(packed[3]);
  if (mode_code == 2 || mode_code == 3) {
    std::size_t pos = 4;
    const auto map_len = static_cast<std::size_t>(packed[pos++]);
    if (packed.size() < pos + map_len + 1) {
      throw std::invalid_argument("KrrClassifier::unpack: corrupt approx");
    }
    auto map = KrrFeatureMap::unpack(packed.subspan(pos, map_len));
    pos += map_len;
    const auto dim = static_cast<std::size_t>(packed[pos++]);
    if (packed.size() != pos + dim || dim != map->output_dim()) {
      throw std::invalid_argument("KrrClassifier::unpack: corrupt approx");
    }
    std::vector<double> w(packed.begin() + static_cast<std::ptrdiff_t>(pos),
                          packed.end());
    return from_feature_model(config, std::move(map), std::move(w));
  }
  const bool primal = mode_code != 0;

  KrrClassifier model(config);
  std::size_t pos = 4;
  if (primal) {
    const auto dim = static_cast<std::size_t>(packed[pos++]);
    if (packed.size() != pos + dim) {
      throw std::invalid_argument("KrrClassifier::unpack: corrupt primal");
    }
    model.weights_ = std::vector<double>(packed.begin() + static_cast<std::ptrdiff_t>(pos),
                                         packed.end());
    // Incremental updates are unavailable after unpack (inv_gram_ omitted
    // from the wire format); decision() only needs w.
  } else {
    const auto n = static_cast<std::size_t>(packed[pos++]);
    const auto m = static_cast<std::size_t>(packed[pos++]);
    if (packed.size() != pos + n + n * m) {
      throw std::invalid_argument("KrrClassifier::unpack: corrupt dual");
    }
    model.alpha_.assign(packed.begin() + static_cast<std::ptrdiff_t>(pos),
                        packed.begin() + static_cast<std::ptrdiff_t>(pos + n));
    pos += n;
    model.train_x_ = Matrix(n, m);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        model.train_x_(i, j) = packed[pos++];
      }
    }
  }
  model.trained_ = true;
  return model;
}

}  // namespace sy::ml
