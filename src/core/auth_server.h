// The cloud Authentication Server (paper §IV-A3).
//
// Hosts the anonymized population feature store and the training module.
// When a user enrolls (or a behavioral-drift retrain triggers), the phone
// uploads the legitimate user's authentication feature vectors; the server
// draws balanced anonymized impostor vectors from the other contributors,
// trains one KRR model per context, and ships the model bundle back.
// Enrollments are independent, so a batch of them fans out across the
// work-stealing ThreadPool against one immutable population snapshot, with a
// per-request RNG seed that keeps the result independent of scheduling.
// A simple network simulator accounts for transfer sizes and latency —
// training is the only phase that needs connectivity (§III).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/auth_model.h"
#include "core/population_store.h"
#include "ml/krr.h"
#include "sensors/types.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sy::core {

// Per-context collection of raw (unscaled) authentication feature vectors.
using VectorsByContext =
    std::map<sensors::DetectedContext, std::vector<std::vector<double>>>;

struct NetworkConfig {
  double latency_ms{45.0};
  double bandwidth_mbps{8.0};
  bool available{true};
};

struct TransferStats {
  std::size_t uploads{0};
  std::size_t downloads{0};
  std::size_t bytes_up{0};
  std::size_t bytes_down{0};
  double total_delay_ms{0.0};
};

// Thrown by any transfer/training path when NetworkConfig::available is
// false. Training is the only phase that needs connectivity (§III); callers
// that can wait (e.g. the drift-retraining path) catch this and queue the
// work instead of failing the session.
struct NetworkUnavailableError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// The simulated phone<->cloud link and every transfer accounted over it: one
// NetworkConfig and one TransferStats behind one mutex, so concurrent
// callers (gateway request threads uploading, pool workers shipping retrained
// models) account exactly. Each transfer costs latency + bytes / bandwidth.
class NetworkLink {
 public:
  explicit NetworkLink(NetworkConfig config = {}) : config_(config) {}

  // Account one transfer. Throws NetworkUnavailableError, accounting
  // nothing, when the link is down: a transfer over a dead link must never
  // silently succeed.
  void upload(std::size_t bytes) { transfer(bytes, /*upload=*/true); }
  void download(std::size_t bytes) { transfer(bytes, /*upload=*/false); }

  void set(NetworkConfig config);
  TransferStats transfers() const;

 private:
  void transfer(std::size_t bytes, bool upload);

  mutable std::mutex mutex_;
  NetworkConfig config_;
  TransferStats stats_;
};

// Wire sizes of the two transfer payloads (8 bytes per double).
std::size_t upload_bytes(const VectorsByContext& positives);
std::size_t model_download_bytes(const AuthModel& model);

struct TrainingConfig {
  ml::KrrConfig krr{};
  // Impostor vectors drawn per positive vector (1.0 = balanced classes).
  double negative_ratio{1.0};
};

// StoredVector / PopulationBucket / PopulationStore live in
// core/population_store.h: the store is a bucket-level copy-on-write
// structure whose snapshots share immutable vector blocks instead of
// deep-copying them.

// Contribution/snapshot backend behind AuthServer. Implementations choose
// their own synchronization contract: CowPopulationStore (below) keeps the
// server's historical externally-synchronized single-map behavior;
// serve::ShardedPopulationStore is internally synchronized and scales
// contribution across shards.
class PopulationStoreBackend {
 public:
  virtual ~PopulationStoreBackend() = default;

  // Anonymized contribution: the token exists only to avoid self-matching
  // during training.
  virtual void contribute(int contributor_token,
                          sensors::DetectedContext context,
                          const std::vector<std::vector<double>>& vectors) = 0;

  // Immutable snapshot of the whole store. The returned map must never
  // change after the call: later contributions go to fresh storage.
  virtual std::shared_ptr<const PopulationStore> snapshot() const = 0;

  virtual std::size_t store_size(sensors::DetectedContext context) const = 0;
};

// The original single-map store with copy-on-write snapshots: contribution
// clones the map only while a snapshot is outstanding, so training against a
// snapshot is never perturbed. The clone shares every bucket's immutable
// block list (O(contexts) pointers, no vector payloads). Public methods are
// externally synchronized (one caller at a time), matching the historical
// server contract.
class CowPopulationStore final : public PopulationStoreBackend {
 public:
  CowPopulationStore() : data_(std::make_shared<PopulationStore>()) {}

  void contribute(int contributor_token, sensors::DetectedContext context,
                  const std::vector<std::vector<double>>& vectors) override;
  std::shared_ptr<const PopulationStore> snapshot() const override {
    return data_;
  }
  std::size_t store_size(sensors::DetectedContext context) const override;

 private:
  std::shared_ptr<PopulationStore> data_;
};

// Shared per-context statistics cache for the approximate training modes
// (core/approx_training.h).
class ApproxStatsCache;

// Trains one user's per-context model bundle against an immutable store
// snapshot. This is the single training kernel behind every AuthServer path
// (train_user_model, the threaded train_user_models, and the RetrainQueue):
// given the same store, request, and RNG state all produce bit-identical
// models. Throws std::runtime_error when the store lacks impostor data for a
// requested context.
//
// When config.krr.mode is kNystrom or kRff this routes to the approximate
// trainer (core/approx_training.h): `rng` goes unused (the approximate path
// is seeded by config.krr.approx_seed and is a pure function of the
// snapshot), and `stats_cache` — optional — shares the per-context
// population statistics across calls the way the COW snapshot shares the
// store itself.
AuthModel train_user_from_store(const PopulationStore& store,
                                const TrainingConfig& config, int user_token,
                                const VectorsByContext& positives,
                                util::Rng& rng, int version,
                                ApproxStatsCache* stats_cache = nullptr);

struct EnrollmentRequest {
  int user_token{0};
  // Not owned; must outlive train_user_models().
  const VectorsByContext* positives{nullptr};
  // Per-request stream seed: makes each user's impostor draw independent of
  // batch composition and scheduling order.
  std::uint64_t rng_seed{0};
  int version{1};
};

// The one cloud trainer. Every upload is rejected with std::invalid_argument
// when it holds no vector at all (no context, or only empty context lists),
// before any transfer is accounted: such an upload would train a model with
// no context, which every later score refuses.
//
// Thread-safety: the network link and the approximate-statistics cache are
// internally synchronized. contribute() and the training paths are as
// thread-safe as the store backend — externally synchronized over the
// default CowPopulationStore, concurrent over serve::ShardedPopulationStore.
class AuthServer {
 public:
  // `store` is the contribution/snapshot backend; null means a private
  // CowPopulationStore (the historical single-map behavior). Injecting a
  // shared serve::ShardedPopulationStore lets many servers/gateways feed one
  // population. `pool` runs train_user_models; null means the process-wide
  // ThreadPool::shared().
  explicit AuthServer(TrainingConfig config = {}, NetworkConfig net = {},
                      std::shared_ptr<PopulationStoreBackend> store = nullptr,
                      util::ThreadPool* pool = nullptr);

  // Anonymized contribution: vectors enter the population store without any
  // user identifier (contributor ids are only used to avoid self-matching
  // during training, mirroring the paper's anonymization note).
  void contribute(int contributor_token, sensors::DetectedContext context,
                  const std::vector<std::vector<double>>& vectors);

  // Trains per-context models from the user's uploaded positives plus
  // anonymized impostor samples: account_upload, then train_uploaded.
  // Throws NetworkUnavailableError when the network is unavailable,
  // std::runtime_error when the store lacks impostor data for a context.
  AuthModel train_user_model(int user_token, const VectorsByContext& positives,
                             util::Rng& rng, int version = 1);

  // The second half of train_user_model, for callers that act between the
  // upload and the snapshot (serve::AuthGateway contributes the upload to
  // the population first): trains against the current store snapshot and
  // accounts the model download. The upload must already be accounted.
  AuthModel train_uploaded(int user_token, const VectorsByContext& positives,
                           util::Rng& rng, int version);

  // Trains all requests concurrently on the pool against one store
  // snapshot; result[i] corresponds to requests[i]. Uploads are accounted
  // up front and downloads after the join, both in request order, so
  // TransferStats are deterministic too. Throws on network unavailability
  // or any per-request training failure (first failure wins, after the
  // batch drains). A batch of one is bit-identical to train_user_model
  // given the same store, config, and seed.
  std::vector<AuthModel> train_user_models(
      std::span<const EnrollmentRequest> requests);

  // Transfer accounting for flows that upload and download around an
  // asynchronous trainer (serve::RetrainQueue) instead of through
  // train_user_model. Both throw NetworkUnavailableError when the link is
  // down; account_upload also rejects a vector-free upload.
  void account_upload(const VectorsByContext& positives);
  void account_model_download(const AuthModel& model);

  std::size_t store_size(sensors::DetectedContext context) const;
  TransferStats transfers() const { return link_.transfers(); }
  void set_network(NetworkConfig net) { link_.set(net); }
  const std::shared_ptr<PopulationStoreBackend>& store() const {
    return store_;
  }
  // Shared approximate-training statistics, reused across train calls while
  // the snapshot prefix is unchanged (and handed to serve::RetrainQueue so
  // async retrains share it). Untouched in exact mode.
  const std::shared_ptr<ApproxStatsCache>& approx_cache() const {
    return approx_cache_;
  }

 private:
  TrainingConfig config_;
  NetworkLink link_;
  std::shared_ptr<PopulationStoreBackend> store_;
  util::ThreadPool* pool_;  // not owned
  std::shared_ptr<ApproxStatsCache> approx_cache_;
};

}  // namespace sy::core
