// Classifier interfaces.
//
// BinaryClassifier: the authentication problem (+1 legitimate user, -1
// impostor); exposes a real-valued decision score whose sign is the
// prediction — the paper's confidence score CS(k) = x_k^T w* is exactly
// this score for the KRR model.
//
// MultiClassifier: the context-detection problem (labels 0..C-1).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset.h"
#include "ml/matrix.h"

namespace sy::ml {

class BinaryClassifier {
 public:
  virtual ~BinaryClassifier() = default;

  // Trains on rows of `x` with labels `y` in {-1, +1}.
  virtual void fit(const Matrix& x, const std::vector<int>& y) = 0;
  // Real-valued score; >= 0 means "legitimate user".
  virtual double decision(std::span<const double> x) const = 0;
  // Scores every row of `x`. The default loops decision(); models override
  // it to reuse per-call scratch (e.g. KRR's one row-kernel pass over the
  // training rows, then num::dot, per window). Overrides must return
  // exactly decision(x.row(i)) per row.
  virtual std::vector<double> decision_batch(const Matrix& x) const {
    std::vector<double> out(x.rows());
    for (std::size_t i = 0; i < x.rows(); ++i) out[i] = decision(x.row(i));
    return out;
  }
  virtual std::string name() const = 0;
  // Fresh untrained copy with the same hyperparameters (for CV loops).
  virtual std::unique_ptr<BinaryClassifier> clone_untrained() const = 0;

  int predict(std::span<const double> x) const {
    return decision(x) >= 0.0 ? 1 : -1;
  }
  void fit(const Dataset& data) { fit(data.x, data.y); }
};

class MultiClassifier {
 public:
  virtual ~MultiClassifier() = default;

  // Trains on labels 0..C-1.
  virtual void fit(const Matrix& x, const std::vector<int>& y) = 0;
  virtual int predict(std::span<const double> x) const = 0;
  virtual std::string name() const = 0;
  virtual std::unique_ptr<MultiClassifier> clone_untrained() const = 0;

  void fit(const Dataset& data) { fit(data.x, data.y); }
};

}  // namespace sy::ml
