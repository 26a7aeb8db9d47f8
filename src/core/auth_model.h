// Per-context authentication models (paper §IV-A2).
//
// "An authentication model is a file containing parameters for the
//  classification algorithm" — here, one standardizing scaler plus one KRR
// classifier per detected context, bundled with versioning metadata. The
// classifier picks the model matching the detected context at test time.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>

#include "ml/krr.h"
#include "ml/scaler.h"
#include "sensors/types.h"

namespace sy::core {

struct ContextModel {
  ml::StandardScaler scaler;
  ml::KrrClassifier classifier;

  ContextModel() : classifier(ml::KrrConfig{}) {}
  ContextModel(ml::StandardScaler s, ml::KrrClassifier c)
      : scaler(std::move(s)), classifier(std::move(c)) {}

  // Decision score of a raw (unscaled) authentication feature vector.
  // This is the paper's confidence score CS(k) = x_k^T w*.
  double score(std::span<const double> raw_vector) const;

  // Batched scoring of raw row vectors: one scaler pass for the whole block,
  // then the classifier's decision_batch (exact dual KRR: per window, one
  // row-kernel pass over the training rows, then num::dot). Row i equals
  // score(raw.row(i)).
  std::vector<double> score_batch(const ml::Matrix& raw) const;
};

class AuthModel {
 public:
  AuthModel() = default;
  AuthModel(int user_id, int version) : user_id_(user_id), version_(version) {}

  int user_id() const { return user_id_; }
  int version() const { return version_; }
  void set_version(int v) { version_ = v; }

  bool has_context(sensors::DetectedContext context) const;
  void set_context_model(sensors::DetectedContext context, ContextModel model);
  const ContextModel& context_model(sensors::DetectedContext context) const;

  // Score under the model for `context`; throws if that context is missing.
  double score(sensors::DetectedContext context,
               std::span<const double> raw_vector) const;
  bool accept(sensors::DetectedContext context,
              std::span<const double> raw_vector) const {
    return score(context, raw_vector) >= 0.0;
  }

  std::size_t context_count() const { return models_.size(); }
  const std::map<sensors::DetectedContext, ContextModel>& models() const {
    return models_;
  }

 private:
  int user_id_{-1};
  int version_{0};
  std::map<sensors::DetectedContext, ContextModel> models_;
};

}  // namespace sy::core
