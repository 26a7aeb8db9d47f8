/// \file
/// Multi-tenant authentication gateway — the cloud side of Fig. 1 scaled up.
///
/// Fronts the one cloud trainer (core::AuthServer, built over the gateway's
/// store) with the three serve:: pieces:
///   contribute()   -> ShardedPopulationStore (per-shard locking)
///   enroll()       -> synchronous AuthServer training against the current
///                     population snapshot; bundle persisted (model_dir) and
///                     cached
///   score_batch()  -> ModelCache lookup (LRU over ModelStore bytes; misses
///                     reload persisted bundles) + blocked per-context scoring
///   report_drift() -> RetrainQueue; the finished model is swapped into the
///                     cache (and persisted) via the queue's callback before
///                     the returned future resolves — scoring never blocks on
///                     a retrain (§V-I made asynchronous)
///
/// All entry points are thread-safe; every simulated network transfer is
/// accounted by the AuthServer (and throws NetworkUnavailableError when the
/// link is down).
///
/// Observability: each gateway owns one obs::Registry shared by its store,
/// cache, and retrain queue, so every serving metric lives in a single
/// namespace (metrics() exposes it; docs/OBSERVABILITY.md has the catalog).
/// The gateway itself records gateway.score_ns / enroll_ns / drift_submit_ns
/// latency histograms, with score_batch broken into cache_fetch /
/// feature_lookup / kernel / decision stage spans.
///
/// With GatewayConfig::track_sessions the score path additionally drives a
/// per-user response module (lockout) and confidence monitor (drift-retrain
/// trigger), surfacing gateway.session.* / gateway.confidence.* metrics —
/// the substrate the scenario harness (analysis/scenarios) measures
/// FAR-under-attack and detection latency against.
///
/// Robustness (docs/ROBUSTNESS.md): scoring admission is bounded and
/// deadline-aware (OverloadError instead of unbounded queuing), and a
/// CircuitBreaker guards the persistence volume — when it opens the gateway
/// degrades to read-only persistence (scoring continues from cached and
/// in-memory models; population log records and model bundles defer) and
/// replays the deferred backlog asynchronously when the volume recovers.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/auth_server.h"
#include "core/authenticator.h"
#include "core/confidence.h"
#include "core/response.h"
#include "obs/registry.h"
#include "serve/model_cache.h"
#include "serve/resilience.h"
#include "serve/retrain_queue.h"
#include "serve/sharded_population_store.h"
#include "serve/volume.h"
#include "util/thread_pool.h"

namespace sy::serve {

struct GatewayConfig {
  std::size_t shards{16};
  std::size_t cache_bytes{64ull << 20};
  core::TrainingConfig training{};
  core::NetworkConfig network{};
  /// Directory for persisted ModelStore bundles. Empty disables persistence:
  /// evicted models are then gone until the user re-enrolls or drift-retrains.
  /// When non-empty, construction also scans the directory and rebuilds the
  /// per-user version table from the bundle headers, so a restarted gateway
  /// serves (and correctly versions) every previously enrolled user.
  std::string model_dir{};
  /// Directory for population durability (per-shard snapshot + append-log;
  /// see ShardedPopulationStore::attach_persistence). Empty disables it: a
  /// restart then silently drops the anonymized population every retrain
  /// draws its impostors from.
  std::string persist_dir{};
  std::size_t persist_compact_threshold{1024};
  std::size_t persist_sync_every{1};
  /// Per-user session response tracking on the score path (paper §IV-A2 +
  /// §V-I moved server-side): every decision feeds a per-user
  /// core::ResponseModule (consecutive rejections challenge, then lock) and
  /// a core::ConfidenceMonitor (sustained low-but-positive confidence
  /// raises the drift-retrain trigger). Off by default — deployments that
  /// run the response module on-phone pay nothing; the scenario harness
  /// turns it on to read lockout/detection-latency/retrain-trigger metrics
  /// straight off the gateway registry.
  bool track_sessions{false};
  core::ResponsePolicy response{};
  core::ConfidenceConfig confidence{};
  /// Wall-clock seconds one scored window represents; advances the internal
  /// per-user session clock when score_batch is called without an explicit
  /// day stamp.
  double window_seconds{6.0};

  /// --- Robustness knobs (docs/ROBUSTNESS.md) ------------------------------
  /// Scoring admission control: max_concurrent bounds in-flight score
  /// requests (0 = unbounded; deadline shedding still applies to requests
  /// that carry one). Rejections surface as OverloadError, never as queuing.
  AdmissionConfig admission{};
  /// Circuit breaker over the persistence volume (population log/snapshot
  /// writes and model-bundle writes share it). While non-closed the gateway
  /// runs *degraded*: scoring continues from cached/in-memory models,
  /// persistence work defers, and closing the breaker replays the backlog.
  BreakerConfig breaker{};
  /// Retry schedule for transient persistence I/O, plus the seed its
  /// deterministic jitter streams fork from.
  BackoffPolicy io_retry{};
  std::uint64_t io_retry_seed{0xd15c0ff5};
  /// Injectable time source for the breaker/admission gate (tests drive
  /// util::SimClock through a lambda); empty = the steady clock.
  ClockFn clock{};
  /// Injectable backoff sleep; empty = a real thread sleep.
  SleepFn io_sleep{};
  /// The volume every durable write goes through: shard logs, shard
  /// snapshots and model bundles (serve/volume.h). Null = a FileVolume.
  /// Chaos runs pass a ChaosVolume, so one armed fault plan degrades every
  /// write path at once.
  std::shared_ptr<Volume> volume{};
  /// RetrainQueue depth cap — queued + running jobs (0 = unbounded); see
  /// RetrainQueue's shed policy.
  std::size_t retrain_max_pending{0};
};

class AuthGateway {
 public:
  explicit AuthGateway(GatewayConfig config = {},
                       util::ThreadPool* pool = nullptr);
  /// Drains the retrain queue and any in-flight deferred-work replay before
  /// any member goes away.
  ~AuthGateway();

  /// Anonymized population contribution (paper §IV-A3).
  void contribute(int contributor_token, sensors::DetectedContext context,
                  const std::vector<std::vector<double>>& vectors);

  /// Synchronous enrollment: accounts the upload, trains per-context models
  /// against the population snapshot, persists + caches the bundle, accounts
  /// the model download. When `contribute_positives` is set the uploaded
  /// vectors also join the anonymized population store. Returns the trained
  /// model at the next reserved version (1 on first enrollment); a
  /// re-enrollment trains and installs a fresh higher version.
  ///
  /// Per-enroll contribution is cheap: the store's snapshot rebuild is
  /// incremental (only the contributed contexts re-merge, sharing vector
  /// blocks), so mass onboarding no longer needs to batch contributions
  /// ahead of enrollment — Stats::store.snapshot_buckets_copied shows the
  /// per-rebuild work tracking contributions, not store size.
  std::shared_ptr<const core::AuthModel> enroll(
      int user_token, const core::VectorsByContext& positives,
      std::uint64_t rng_seed, bool contribute_positives = true);

  /// Scores one user's windows under the phone-detected context, with the
  /// same missing-context fallback as the on-phone Authenticator. Throws
  /// std::out_of_range for a user the gateway has never enrolled.
  std::vector<core::AuthDecision> score_batch(
      int user_token, sensors::DetectedContext context,
      const std::vector<std::vector<double>>& windows);

  /// Same, with an explicit observation day for the confidence monitor
  /// (drift scenarios score traffic spread over simulated days). Without it
  /// the per-user session clock advances window_seconds per window.
  std::vector<core::AuthDecision> score_batch(
      int user_token, sensors::DetectedContext context,
      const std::vector<std::vector<double>>& windows, double day);

  /// Deadline-aware variant: `deadline_ns` is absolute on the gateway clock
  /// (now_ns()). Sheds with OverloadError(kDeadline) when the deadline has
  /// passed or the admission gate's service-time estimate overruns it —
  /// rejecting in microseconds instead of doing work the caller will discard.
  std::vector<core::AuthDecision> score_batch_within(
      int user_token, sensors::DetectedContext context,
      const std::vector<std::vector<double>>& windows,
      std::int64_t deadline_ns);

  /// Current nanoseconds on the gateway's (possibly injected) clock; the
  /// time base score_batch_within deadlines live in.
  std::int64_t now_ns() const { return clock_(); }

  /// --- Session tracking surface (meaningful when track_sessions) --------
  /// Response state of the user's current session (kActive when untracked
  /// or never scored).
  core::SessionState session_state(int user_token) const;
  /// 1-based index (since the last reset_session) of the window whose
  /// rejection locked the session; 0 while unlocked. Detection latency in
  /// seconds is this times window_seconds.
  std::uint64_t session_lockout_window(int user_token) const;
  /// True when the user's confidence monitor currently demands a retrain
  /// (§V-I trigger); installing a fresh model resets the monitor.
  bool confidence_retrain_needed(int user_token) const;
  /// Explicit (multi-factor) re-authentication: unlocks the response module
  /// and starts a new session window count. Confidence history survives —
  /// drift evidence spans sessions; only a fresh model clears it.
  void reset_session(int user_token);

  /// Drift trigger: enqueues an async retrain at a version reserved above
  /// every installed or in-flight one, so concurrent retrains never collide
  /// on a version number. The new model is swapped into the cache (and
  /// persisted) before the future resolves; concurrent reports for one user
  /// coalesce while queued (the coalesced job trains the highest reserved
  /// version).
  std::shared_future<core::AuthModel> report_drift(
      int user_token, core::VectorsByContext positives,
      std::uint64_t rng_seed);

  /// Latest installed model version for a user; 0 when never enrolled.
  int model_version(int user_token) const;

  void set_network(core::NetworkConfig net) { server_.set_network(net); }
  void wait_idle() { queue_.wait_idle(); }

  struct Stats {
    ModelCache::Stats cache;
    RetrainQueue::Stats queue;
    ShardedPopulationStore::Stats store;
    core::TransferStats transfers;
    std::size_t enrolled_users{0};
    /// Users whose persisted bundles were re-registered at construction.
    std::size_t recovered_users{0};
    /// Model bundles deferred by the degraded mode, awaiting replay.
    std::size_t pending_bundles{0};
  };
  Stats stats() const;

  /// The circuit breaker guarding the persistence volume. Scenario/test
  /// access only — production callers never drive it directly (the I/O
  /// paths feed it).
  CircuitBreaker& persistence_breaker() { return persist_breaker_; }
  const CircuitBreaker& persistence_breaker() const { return persist_breaker_; }
  /// The scoring admission gate (shed counters, inflight, EWMA estimate).
  const AdmissionGate& admission() const { return admission_; }
  /// Model bundles deferred by the degraded mode, awaiting replay.
  std::size_t pending_bundle_count() const;
  /// Blocks until no deferred-work replay task is in flight (the replay is
  /// kicked asynchronously when the breaker closes).
  void wait_replay_idle() const;

  /// What attach_persistence replayed at construction (all zero when
  /// persist_dir is empty).
  const RecoveryStats& population_recovery() const { return recovery_; }

  const ShardedPopulationStore& store() const { return *store_; }
  const ModelCache& cache() const { return cache_; }

  /// The gateway-wide metric registry (gateway.*, cache.*, retrain.*,
  /// store.*, approx.*, pool.* — see docs/OBSERVABILITY.md). snapshot() it
  /// for a point-in-time view; obs::to_json / obs::render_table export it.
  obs::Registry& metrics() { return registry_; }
  const obs::Registry& metrics() const { return registry_; }

 private:
  /// Startup recovery: attaches population persistence (replaying
  /// snapshot+log) and rebuilds the version table from persisted bundle
  /// headers. Runs in the constructor, before any request can arrive.
  void recover_persisted_state();
  std::optional<ModelCache::LoadedModel> load_model(int user_token);
  /// RetrainQueue swap callback and the tail of enroll(): persist + cache a
  /// model iff its version is newer than the installed one (a slow, stale
  /// retrain finishing after a newer one must not overwrite it). Same-user
  /// installs are serialized on a striped mutex so the version check and the
  /// cache/disk writes commit atomically. Returns false when skipped.
  bool install_model(int user_token,
                     std::shared_ptr<const core::AuthModel> model);
  std::string model_path(int user_token) const;
  /// Publishes `bytes` as the user's bundle on the volume (atomic, not
  /// fsynced), with transient-I/O retry. Caller holds the user's install
  /// stripe.
  void write_bundle(int user_token, const std::vector<std::uint8_t>& bytes);
  /// Breaker transition hook: pauses/unpauses cache eviction and, on close,
  /// kicks the asynchronous deferred-work replay.
  void on_breaker_transition(CircuitBreaker::State to);
  /// Submits replay_deferred_work() to the pool, counted in
  /// replay_inflight_ so wait_replay_idle() and the destructor outwait it.
  void submit_replay();
  /// Replay body (pool task): population backlog first, then bundles.
  void replay_deferred_work();
  void replay_pending_bundles();

  GatewayConfig config_;
  /// Declared before every component that reports into it (and therefore
  /// destroyed after all of them): store/cache/queue hold raw handles into
  /// this registry for their whole lifetime.
  obs::Registry registry_;
  /// The gateway clock (injected or steady); breaker/admission share it.
  ClockFn clock_;
  /// Declared before store_/cache_/queue_: the store keeps a raw pointer to
  /// the breaker (PersistenceOptions::breaker) and retrain installs feed it.
  CircuitBreaker persist_breaker_;
  AdmissionGate admission_;
  std::shared_ptr<ShardedPopulationStore> store_;
  ModelCache cache_;
  /// Pool the deferred-work replay runs on (caller-owned or the shared one).
  util::ThreadPool* pool_;
  /// The trainer over store_: enroll trains through it, every transfer is
  /// accounted by it, and its approximate-statistics cache is shared with
  /// queue_ (which holds a raw pointer into it — declared before queue_).
  core::AuthServer server_;

  /// Resolved-once handles for the gateway's own request metrics.
  obs::Histogram* score_ns_;
  obs::Histogram* score_cache_fetch_ns_;
  obs::Histogram* score_feature_lookup_ns_;
  obs::Histogram* score_kernel_ns_;
  obs::Histogram* score_decision_ns_;
  obs::Histogram* enroll_ns_;
  obs::Histogram* drift_submit_ns_;
  obs::Counter* score_requests_;
  obs::Counter* score_windows_;
  obs::Counter* enrolls_;
  obs::Counter* drift_reports_;
  /// Session-tracking metrics (gateway.session.*, gateway.confidence.*);
  /// recorded only when config_.track_sessions.
  obs::Counter* session_accepts_;
  obs::Counter* session_rejects_;
  obs::Counter* session_challenges_;
  obs::Counter* session_lockouts_;
  obs::Counter* confidence_triggers_;
  obs::Histogram* session_detect_ns_;
  /// Degraded-mode bundle accounting (gateway.bundles_*).
  obs::Counter* bundles_deferred_;
  obs::Counter* bundles_replayed_;

  struct VersionSlot {
    int installed{0};  // version of the live model (0 = never enrolled)
    int reserved{0};   // highest version handed to an in-flight retrain
  };
  mutable std::mutex version_mutex_;
  std::unordered_map<int, VersionSlot> versions_;
  /// Striped per-user install serialization; see install_model().
  std::array<std::mutex, 16> install_mutexes_;

  RecoveryStats recovery_;
  std::size_t recovered_users_{0};

  /// A model installed while the bundle store was degraded: cached and
  /// version-published (scoring proceeds), its durable write deferred here
  /// until the breaker closes. Keyed by user; a newer install supersedes.
  struct PendingBundle {
    std::shared_ptr<const core::AuthModel> model;
    std::vector<std::uint8_t> bytes;
    int version{0};
  };
  mutable std::mutex bundle_mutex_;
  std::unordered_map<int, PendingBundle> pending_bundles_;

  /// In-flight replay tasks (submitted to pool_ when the breaker closes, or
  /// when a bundle write succeeds while others are still deferred); the
  /// destructor must outwait them — they capture `this`.
  mutable std::mutex replay_mutex_;
  mutable std::condition_variable replay_cv_;
  std::size_t replay_inflight_{0};

  /// Per-user session state behind track_sessions. One mutex for the whole
  /// map: the tracked path is the scenario harness, not the 100k-user load
  /// bench, and the per-batch critical section is a few branches per window.
  struct SessionTrack {
    core::ResponseModule response;
    core::ConfidenceMonitor monitor;
    double clock_days{0.0};         ///< internal day clock (no explicit day)
    std::uint64_t windows_seen{0};  ///< windows since the last reset_session
    std::uint64_t lockout_window{0};  ///< 1-based lock index; 0 = unlocked
    bool trigger_latched{false};  ///< retrain trigger edge already counted
    explicit SessionTrack(const GatewayConfig& config)
        : response(config.response), monitor(config.confidence) {}
  };
  std::vector<core::AuthDecision> score_batch_impl(
      int user_token, sensors::DetectedContext context,
      const std::vector<std::vector<double>>& windows, const double* day,
      std::optional<std::int64_t> deadline_ns = std::nullopt);
  void track_decisions(int user_token,
                       const std::vector<core::AuthDecision>& decisions,
                       const double* day);
  mutable std::mutex session_mutex_;
  std::unordered_map<int, SessionTrack> sessions_;

  /// Declared last: destroyed first, draining in-flight retrains while the
  /// store/cache they reference are still alive.
  RetrainQueue queue_;
};

}  // namespace sy::serve
