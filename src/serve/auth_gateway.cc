#include "serve/auth_gateway.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "core/approx_training.h"
#include "core/model_store.h"
#include "ml/matrix.h"
#include "obs/span.h"
#include "util/logging.h"
#include "util/rng.h"

namespace sy::serve {

AuthGateway::AuthGateway(GatewayConfig config, util::ThreadPool* pool)
    : config_(config),
      clock_(config.clock ? config.clock : steady_clock_fn()),
      persist_breaker_(config.breaker, clock_, &registry_, "gateway.breaker"),
      admission_(config.admission, clock_, &registry_, "gateway.admission"),
      store_(std::make_shared<ShardedPopulationStore>(config.shards,
                                                      &registry_)),
      cache_(config.cache_bytes, [this](int user) { return load_model(user); },
             &registry_),
      pool_(pool != nullptr ? pool : &util::ThreadPool::shared()),
      server_(config.training, config.network, store_, pool_),
      score_ns_(&registry_.histogram("gateway.score_ns")),
      score_cache_fetch_ns_(
          &registry_.histogram("gateway.score.cache_fetch_ns")),
      score_feature_lookup_ns_(
          &registry_.histogram("gateway.score.feature_lookup_ns")),
      score_kernel_ns_(&registry_.histogram("gateway.score.kernel_ns")),
      score_decision_ns_(&registry_.histogram("gateway.score.decision_ns")),
      enroll_ns_(&registry_.histogram("gateway.enroll_ns")),
      drift_submit_ns_(&registry_.histogram("gateway.drift_submit_ns")),
      score_requests_(&registry_.counter("gateway.score_requests")),
      score_windows_(&registry_.counter("gateway.score_windows")),
      enrolls_(&registry_.counter("gateway.enrolls")),
      drift_reports_(&registry_.counter("gateway.drift_reports")),
      session_accepts_(&registry_.counter("gateway.session.accepts")),
      session_rejects_(&registry_.counter("gateway.session.rejects")),
      session_challenges_(&registry_.counter("gateway.session.challenges")),
      session_lockouts_(&registry_.counter("gateway.session.lockouts")),
      confidence_triggers_(
          &registry_.counter("gateway.confidence.retrain_triggers")),
      session_detect_ns_(
          &registry_.histogram("gateway.session.detection_latency_ns")),
      bundles_deferred_(&registry_.counter("gateway.bundles_deferred")),
      bundles_replayed_(&registry_.counter("gateway.bundles_replayed")),
      queue_(
          store_.get(), config.training,
          [this](int user, const core::AuthModel& model) {
            // Ship the fresh bundle to the phone, then make it live.
            server_.account_model_download(model);
            (void)install_model(
                user, std::make_shared<const core::AuthModel>(model));
          },
          pool, server_.approx_cache().get(), &registry_,
          config.retrain_max_pending) {
  // Foreign state sampled at snapshot time. The approx-cache callbacks keep
  // the shared_ptr alive; the pool (caller-owned or the process-wide shared
  // one) outlives this gateway by contract.
  {
    auto cache = server_.approx_cache();
    registry_.register_callback_gauge("approx.stats_hits", [cache] {
      return static_cast<std::int64_t>(cache->stats().hits);
    });
    registry_.register_callback_gauge("approx.stats_builds", [cache] {
      return static_cast<std::int64_t>(cache->stats().builds);
    });
  }
  // Degraded-time gauge: reads the breaker's accumulator on scrape. Runs
  // under the registry mutex but only takes the breaker's own mutex — no
  // registry reentry.
  registry_.register_callback_gauge("gateway.degraded_seconds", [this] {
    return static_cast<std::int64_t>(persist_breaker_.degraded_ns() /
                                     1'000'000'000);
  });
  persist_breaker_.set_transition_hook(
      [this](CircuitBreaker::State, CircuitBreaker::State to) {
        on_breaker_transition(to);
      });
  obs::bind_thread_pool(registry_,
                        pool != nullptr ? *pool : util::ThreadPool::shared());
  recover_persisted_state();
}

AuthGateway::~AuthGateway() {
  // Retrain installs can fire breaker transitions, which can kick replay
  // tasks; drain the queue FIRST so no new replays appear, then outwait the
  // replays (they capture `this`).
  queue_.wait_idle();
  wait_replay_idle();
}

void AuthGateway::wait_replay_idle() const {
  std::unique_lock<std::mutex> lock(replay_mutex_);
  replay_cv_.wait(lock, [this] { return replay_inflight_ == 0; });
}

std::size_t AuthGateway::pending_bundle_count() const {
  std::lock_guard<std::mutex> lock(bundle_mutex_);
  return pending_bundles_.size();
}

void AuthGateway::on_breaker_transition(CircuitBreaker::State to) {
  // While degraded, an evicted cache entry could not be reloaded (the bundle
  // store behind the loader shares the failing volume), so eviction pauses.
  cache_.set_eviction_paused(to != CircuitBreaker::State::kClosed);
  if (to != CircuitBreaker::State::kClosed) return;
  // Recovery. The hook can fire with a shard mutex held (contribute → heal →
  // on_success), so the replay MUST run asynchronously: a synchronous
  // flush_deferred() here would re-take that shard's mutex and deadlock.
  submit_replay();
}

void AuthGateway::submit_replay() {
  {
    std::lock_guard<std::mutex> lock(replay_mutex_);
    ++replay_inflight_;
  }
  pool_->submit([this] {
    replay_deferred_work();
    std::lock_guard<std::mutex> lock(replay_mutex_);
    --replay_inflight_;
    replay_cv_.notify_all();
  });
}

void AuthGateway::replay_deferred_work() {
  try {
    const std::uint64_t flushed = store_->flush_deferred();
    if (flushed > 0) {
      util::log_info_kv("gateway replayed deferred population records",
                        {{"records", flushed}});
    }
    replay_pending_bundles();
  } catch (const std::exception& e) {
    // A replay failure re-opened the breaker (flush_deferred reported it);
    // the next close retries. Nothing is lost — the backlog stays in memory.
    util::log_warn_kv("gateway deferred-work replay failed",
                      {{"error", e.what()}});
  }
}

void AuthGateway::recover_persisted_state() {
  if (!config_.volume) config_.volume = std::make_shared<FileVolume>();
  // Population durability: replay per-shard snapshot+log so retrains keep
  // drawing impostors from the pre-restart anonymized population.
  if (!config_.persist_dir.empty()) {
    PersistenceOptions options;
    options.dir = config_.persist_dir;
    options.compact_threshold = config_.persist_compact_threshold;
    options.sync_every = config_.persist_sync_every;
    options.volume = config_.volume;
    options.breaker = &persist_breaker_;
    options.io_retry = config_.io_retry;
    options.io_retry_seed = config_.io_retry_seed;
    options.io_retry_sleep = config_.io_sleep;
    recovery_ = store_->attach_persistence(options);
  }
  // Version table: without this, a restarted gateway would reserve version
  // 1 for a re-enrollment and lose the install race against the persisted
  // higher-version bundle — the served model would silently diverge from
  // the returned one. Headers only are read (16 bytes per bundle); the
  // digest-verified load happens on first use, as always.
  if (config_.model_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(config_.model_dir, ec);
  for (const auto& entry :
       std::filesystem::directory_iterator(config_.model_dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("user_") || !name.ends_with(".symd")) continue;
    try {
      const auto header = core::ModelStore::peek_header(entry.path().string());
      auto& slot = versions_[header.user_id];
      slot.installed = std::max(slot.installed, header.version);
      slot.reserved = std::max(slot.reserved, slot.installed);
      ++recovered_users_;
    } catch (const core::ModelStoreError& e) {
      // A bundle whose header does not even parse is left unregistered: the
      // user can re-enroll, and any scoring attempt surfaces the verified
      // loader's ModelCorruptError (the actual security event).
      util::log_warn_kv(
          "AuthGateway: skipping unreadable bundle during recovery",
          {{"path", entry.path().string()}, {"error", e.what()}});
    }
  }
}

std::string AuthGateway::model_path(int user_token) const {
  return config_.model_dir + "/user_" + std::to_string(user_token) + ".symd";
}

void AuthGateway::contribute(int contributor_token,
                             sensors::DetectedContext context,
                             const std::vector<std::vector<double>>& vectors) {
  store_->contribute(contributor_token, context, vectors);
}

std::optional<ModelCache::LoadedModel> AuthGateway::load_model(
    int user_token) {
  if (config_.model_dir.empty()) return std::nullopt;
  // Degraded: don't touch the failing volume for a read — the user scores
  // from cache or not at all. state() (not allow()) keeps the half-open
  // probe reserved for the write path, where success proves writability.
  if (persist_breaker_.state() != CircuitBreaker::State::kClosed) {
    return std::nullopt;
  }
  const std::string path = model_path(user_token);
  try {
    core::AuthModel model = core::ModelStore::load(path);
    // The file IS the ModelStore serialization: its size is the cache
    // charge, sparing a redundant serialize+digest pass per miss.
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    return ModelCache::LoadedModel{
        std::move(model), ec ? 0 : static_cast<std::size_t>(size)};
  } catch (const core::ModelMissingError&) {
    // Never persisted: an unknown (or never-enrolled) user, not an error.
    return std::nullopt;
  }
  // ModelCorruptError propagates — a tampered bundle is a security event.
}

bool AuthGateway::install_model(int user_token,
                                std::shared_ptr<const core::AuthModel> model) {
  // Same-user installs serialize on a stripe so the version check below and
  // the disk/cache writes commit as one unit: without it, a stale install
  // could pass the check, then lose the write race against a newer one.
  std::lock_guard<std::mutex> install_lock(
      install_mutexes_[static_cast<std::size_t>(
          util::splitmix64(static_cast<std::uint64_t>(user_token)) %
          install_mutexes_.size())]);
  {
    std::lock_guard<std::mutex> lock(version_mutex_);
    const auto it = versions_.find(user_token);
    if (it != versions_.end() && it->second.installed != 0 &&
        model->version() <= it->second.installed) {
      return false;  // a newer model is already live
    }
  }
  const auto bytes = core::ModelStore::serialize(*model);
  const int version = model->version();
  if (!config_.model_dir.empty()) {
    if (!persist_breaker_.allow()) {
      // Degraded: the model still goes live (cache + version table below) so
      // scoring and the drift loop keep working; only the durable bundle
      // write waits in pending_bundles_ for the volume to recover. A newer
      // install for the same user simply supersedes the entry.
      {
        std::lock_guard<std::mutex> lock(bundle_mutex_);
        pending_bundles_[user_token] = PendingBundle{model, bytes, version};
      }
      bundles_deferred_->inc();
    } else {
      try {
        write_bundle(user_token, bytes);
        persist_breaker_.on_success();
        bool backlog = false;
        {
          // This durable write supersedes any bundle deferred for the user.
          std::lock_guard<std::mutex> lock(bundle_mutex_);
          pending_bundles_.erase(user_token);
          backlog = !pending_bundles_.empty();
        }
        // Other users' bundles deferred after a failure that left the
        // breaker closed: no open→closed transition will ever replay them,
        // and the volume has just taken a write. Replay asynchronously —
        // this thread holds an install stripe the replay takes per user.
        if (backlog) submit_replay();
      } catch (const IoError& e) {
        persist_breaker_.on_failure();
        {
          std::lock_guard<std::mutex> lock(bundle_mutex_);
          pending_bundles_[user_token] = PendingBundle{model, bytes, version};
        }
        bundles_deferred_->inc();
        util::log_warn_kv("bundle write failed; deferred until recovery",
                          {{"user", user_token}, {"error", e.what()}});
      }
    }
  }
  cache_.put(user_token, std::move(model), bytes.size());
  {
    // Publish the version only now: model_version() must never get ahead of
    // what disk and cache actually hold, or the staleness self-heal in
    // score_batch() would chase a model that does not exist yet.
    std::lock_guard<std::mutex> lock(version_mutex_);
    auto& slot = versions_[user_token];
    slot.installed = std::max(slot.installed, version);
    slot.reserved = std::max(slot.reserved, slot.installed);
  }
  // A freshly installed model invalidates the drift evidence: §V-I resets
  // the confidence history after retraining, or the same low-confidence
  // window would immediately re-trigger against the new model.
  if (config_.track_sessions) {
    std::lock_guard<std::mutex> lock(session_mutex_);
    const auto it = sessions_.find(user_token);
    if (it != sessions_.end()) {
      it->second.monitor.reset();
      it->second.trigger_latched = false;
    }
  }
  return true;
}

void AuthGateway::write_bundle(int user_token,
                               const std::vector<std::uint8_t>& bytes) {
  // Atomic: a concurrent cache-miss loader reading this user's bundle must
  // see the old or the new file, never a torn in-place rewrite. Not
  // fsynced: a power loss may roll a bundle back (docs/ROBUSTNESS.md).
  const std::string path = model_path(user_token);
  // Deterministic per-user jitter stream: replays are reproducible under a
  // fixed io_retry_seed.
  util::Rng jitter(util::splitmix64(
      config_.io_retry_seed ^
      static_cast<std::uint64_t>(static_cast<std::int64_t>(user_token))));
  retry_io(
      [&] {
        config_.volume->publish(path, bytes, Volume::Durability::kAtomic);
      },
      config_.io_retry, jitter, config_.io_sleep);
}

void AuthGateway::replay_pending_bundles() {
  std::vector<int> users;
  {
    std::lock_guard<std::mutex> lock(bundle_mutex_);
    users.reserve(pending_bundles_.size());
    for (const auto& [user, bundle] : pending_bundles_) users.push_back(user);
  }
  for (const int user : users) {
    // Same stripe as install_model: the replayed write must not interleave
    // with a concurrent (newer) install's version-check + write.
    std::lock_guard<std::mutex> install_lock(
        install_mutexes_[static_cast<std::size_t>(
            util::splitmix64(static_cast<std::uint64_t>(user)) %
            install_mutexes_.size())]);
    PendingBundle bundle;
    {
      std::lock_guard<std::mutex> lock(bundle_mutex_);
      const auto it = pending_bundles_.find(user);
      if (it == pending_bundles_.end()) continue;  // superseded meanwhile
      bundle = it->second;
    }
    bool stale = false;
    {
      std::lock_guard<std::mutex> lock(version_mutex_);
      const auto it = versions_.find(user);
      stale = it != versions_.end() && it->second.installed > bundle.version;
    }
    if (stale) {
      // A newer model was installed (and persisted) after this one deferred;
      // writing the stale bytes would roll the on-disk bundle backwards.
      std::lock_guard<std::mutex> lock(bundle_mutex_);
      const auto it = pending_bundles_.find(user);
      if (it != pending_bundles_.end() &&
          it->second.version == bundle.version) {
        pending_bundles_.erase(it);
      }
      continue;
    }
    if (!persist_breaker_.allow()) return;  // re-opened mid-replay
    try {
      write_bundle(user, bundle.bytes);
      persist_breaker_.on_success();
      bundles_replayed_->inc();
      std::lock_guard<std::mutex> lock(bundle_mutex_);
      const auto it = pending_bundles_.find(user);
      if (it != pending_bundles_.end() &&
          it->second.version <= bundle.version) {
        pending_bundles_.erase(it);
      }
    } catch (const IoError& e) {
      // Volume still sick: the retained backlog replays on the next close
      // (population writes will trip the breaker open again meanwhile).
      persist_breaker_.on_failure();
      util::log_warn_kv("bundle replay failed; backlog retained",
                        {{"user", user}, {"error", e.what()}});
      return;
    }
  }
}

std::shared_ptr<const core::AuthModel> AuthGateway::enroll(
    int user_token, const core::VectorsByContext& positives,
    std::uint64_t rng_seed, bool contribute_positives) {
  obs::Span enroll_span(enroll_ns_);
  enrolls_->inc();
  server_.account_upload(positives);
  // Contribute first, then snapshot: rebuilds are incremental (only the
  // contributed contexts re-merge, as block-pointer concatenation), so the
  // per-enroll rebuild is O(delta) and later enrollees immediately draw
  // impostors from this user. Training stays result-identical either way —
  // the enrollee's own vectors are excluded by the token filter.
  if (contribute_positives) {
    for (const auto& [context, vectors] : positives) {
      store_->contribute(user_token, context, vectors);
    }
  }
  // Reserve the next version (first enrollment = 1): a re-enrollment must
  // install — training a fixed version 1 would lose against the stale-install
  // guard and silently diverge the served model from the returned one.
  int version = 0;
  {
    std::lock_guard<std::mutex> lock(version_mutex_);
    auto& slot = versions_[user_token];
    slot.reserved = std::max(slot.reserved, slot.installed) + 1;
    version = slot.reserved;
  }
  util::Rng rng(rng_seed);
  auto model = std::make_shared<const core::AuthModel>(
      server_.train_uploaded(user_token, positives, rng, version));
  (void)install_model(user_token, model);
  return model;
}

std::vector<core::AuthDecision> AuthGateway::score_batch(
    int user_token, sensors::DetectedContext context,
    const std::vector<std::vector<double>>& windows) {
  return score_batch_impl(user_token, context, windows, nullptr);
}

std::vector<core::AuthDecision> AuthGateway::score_batch(
    int user_token, sensors::DetectedContext context,
    const std::vector<std::vector<double>>& windows, double day) {
  return score_batch_impl(user_token, context, windows, &day);
}

std::vector<core::AuthDecision> AuthGateway::score_batch_within(
    int user_token, sensors::DetectedContext context,
    const std::vector<std::vector<double>>& windows,
    std::int64_t deadline_ns) {
  return score_batch_impl(user_token, context, windows, nullptr, deadline_ns);
}

std::vector<core::AuthDecision> AuthGateway::score_batch_impl(
    int user_token, sensors::DetectedContext context,
    const std::vector<std::vector<double>>& windows, const double* day,
    std::optional<std::int64_t> deadline_ns) {
  // Admission first, before any work or metrics: a shed request must cost
  // microseconds. Throws OverloadError (kSaturated/kDeadline); the RAII
  // ticket frees the slot and feeds the service-time estimate on return.
  AdmissionGate::Ticket ticket = admission_.admit(deadline_ns);
  // Shared-boundary stage timing: each stage() below closes one stage of
  // the pipeline with a single clock read (a Span per stage would double
  // the per-event clock cost — the ≤3% overhead gate notices).
  obs::StageTimer score_timer(score_ns_);
  score_requests_->inc();
  score_windows_->inc(windows.size());

  std::shared_ptr<const core::AuthModel> model = cache_.get(user_token);
  // Self-heal a rare staleness window: a cache-miss load racing a retrain
  // install can re-insert the older bundle after the newer entry was
  // evicted. install_model publishes model_version() only after disk and
  // cache hold the new model, so one evict-and-reload gets the fresh one.
  if (model != nullptr && model->version() < model_version(user_token)) {
    cache_.erase(user_token);
    model = cache_.get(user_token);
  }
  score_timer.stage(score_cache_fetch_ns_);
  if (model == nullptr) {
    throw std::out_of_range("AuthGateway: no model for user " +
                            std::to_string(user_token));
  }
  if (model->models().empty()) {
    throw std::logic_error("AuthGateway: model bundle is empty");
  }

  // Feature lookup: context-model resolution plus assembling the request's
  // windows into one scoring block.
  // Same fallback as the on-phone Authenticator: a context the user never
  // produced during enrollment scores under whichever model exists.
  sensors::DetectedContext effective = context;
  if (!model->has_context(effective)) {
    effective = model->models().begin()->first;
  }

  std::vector<core::AuthDecision> out(windows.size());
  if (windows.empty()) return out;
  // One blocked scaler + kernel pass for the whole batch; all windows of a
  // request share the phone-detected context.
  const std::size_t dim = windows.front().size();
  ml::Matrix block(windows.size(), dim);
  for (std::size_t r = 0; r < windows.size(); ++r) {
    if (windows[r].size() != dim) {
      throw std::invalid_argument(
          "AuthGateway: ragged window dimensions in one batch");
    }
    std::copy(windows[r].begin(), windows[r].end(), block.row(r).begin());
  }
  score_timer.stage(score_feature_lookup_ns_);

  const std::vector<double> scores =
      model->context_model(effective).score_batch(block);
  score_timer.stage(score_kernel_ns_);

  for (std::size_t r = 0; r < windows.size(); ++r) {
    out[r].context = context;
    out[r].confidence = scores[r];
    out[r].accepted = scores[r] >= 0.0;
  }
  track_decisions(user_token, out, day);
  score_timer.finish(score_decision_ns_);
  return out;
}

void AuthGateway::track_decisions(
    int user_token, const std::vector<core::AuthDecision>& decisions,
    const double* day) {
  if (!config_.track_sessions) return;
  std::lock_guard<std::mutex> lock(session_mutex_);
  auto [it, inserted] = sessions_.try_emplace(user_token, config_);
  SessionTrack& session = it->second;
  (void)inserted;
  for (const core::AuthDecision& decision : decisions) {
    ++session.windows_seen;
    const bool was_locked = session.response.locked();
    const core::Action action = session.response.on_decision(decision);
    if (decision.accepted) {
      session_accepts_->inc();
    } else {
      session_rejects_->inc();
    }
    if (action == core::Action::kChallenge) session_challenges_->inc();
    if (!was_locked && session.response.locked()) {
      session_lockouts_->inc();
      session.lockout_window = session.windows_seen;
      // Detection latency: wall-clock from session start (or explicit
      // re-auth) to the locking window, in the registry's ns convention.
      session_detect_ns_->record(static_cast<std::uint64_t>(
          static_cast<double>(session.windows_seen) *
          config_.window_seconds * 1e9));
    }
    // §V-I: the monitor watches the *authenticated* session only — once the
    // response module locks, the feed stops (an attacker's windows must not
    // sit in the drift history a genuine retrain would learn from).
    if (!was_locked) {
      session.monitor.record(day != nullptr ? *day : session.clock_days,
                             decision.confidence);
    }
    session.clock_days += config_.window_seconds / 86400.0;
  }
  // Count rising edges only: one trigger per sustained-low episode, however
  // many batches observe it (the scenario reads this as "retrains demanded").
  if (session.monitor.retrain_needed()) {
    if (!session.trigger_latched) {
      confidence_triggers_->inc();
      session.trigger_latched = true;
    }
  } else {
    session.trigger_latched = false;
  }
}

core::SessionState AuthGateway::session_state(int user_token) const {
  std::lock_guard<std::mutex> lock(session_mutex_);
  const auto it = sessions_.find(user_token);
  return it == sessions_.end() ? core::SessionState::kActive
                               : it->second.response.state();
}

std::uint64_t AuthGateway::session_lockout_window(int user_token) const {
  std::lock_guard<std::mutex> lock(session_mutex_);
  const auto it = sessions_.find(user_token);
  return it == sessions_.end() ? 0 : it->second.lockout_window;
}

bool AuthGateway::confidence_retrain_needed(int user_token) const {
  std::lock_guard<std::mutex> lock(session_mutex_);
  const auto it = sessions_.find(user_token);
  return it != sessions_.end() && it->second.monitor.retrain_needed();
}

void AuthGateway::reset_session(int user_token) {
  std::lock_guard<std::mutex> lock(session_mutex_);
  const auto it = sessions_.find(user_token);
  if (it == sessions_.end()) return;
  it->second.response.explicit_auth(true);
  it->second.windows_seen = 0;
  it->second.lockout_window = 0;
}

std::shared_future<core::AuthModel> AuthGateway::report_drift(
    int user_token, core::VectorsByContext positives, std::uint64_t rng_seed) {
  // Times only the submit path (accounting + version reservation + enqueue);
  // the training itself lands in retrain.train_ns on the worker.
  obs::Span submit_span(drift_submit_ns_);
  drift_reports_->inc();
  server_.account_upload(positives);
  RetrainQueue::Request request;
  request.user_token = user_token;
  request.positives = std::move(positives);
  request.rng_seed = rng_seed;
  {
    // Reserve a version strictly above anything installed OR in flight:
    // concurrent non-coalesced retrains must never train the same number
    // (install_model orders models by it).
    std::lock_guard<std::mutex> lock(version_mutex_);
    auto& slot = versions_[user_token];
    slot.reserved = std::max(slot.reserved, slot.installed) + 1;
    request.version = slot.reserved;
  }
  return queue_.submit(std::move(request));
}

int AuthGateway::model_version(int user_token) const {
  std::lock_guard<std::mutex> lock(version_mutex_);
  const auto it = versions_.find(user_token);
  return it == versions_.end() ? 0 : it->second.installed;
}

AuthGateway::Stats AuthGateway::stats() const {
  Stats out;
  out.cache = cache_.stats();
  out.queue = queue_.stats();
  out.store = store_->stats();
  out.transfers = server_.transfers();
  {
    std::lock_guard<std::mutex> lock(version_mutex_);
    out.enrolled_users = versions_.size();
  }
  out.recovered_users = recovered_users_;
  out.pending_bundles = pending_bundle_count();
  return out;
}

}  // namespace sy::serve
