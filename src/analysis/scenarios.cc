#include "analysis/scenarios.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/corpus.h"
#include "attack/campaign.h"
#include "core/model_store.h"
#include "core/population_codec.h"
#include "features/feature_extractor.h"
#include "sensors/device.h"
#include "sensors/drift.h"
#include "sensors/tuning.h"
#include "serve/auth_gateway.h"
#include "serve/shard_snapshot.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/sim_clock.h"
#include "util/stopwatch.h"

namespace sy::analysis {

namespace {

constexpr auto kStationary = sensors::DetectedContext::kStationary;
constexpr auto kMoving = sensors::DetectedContext::kMoving;

// Every scenario speaks phone-only (14-dim) vectors: the campaign driver and
// the live collectors below run without the watch stream, so the enrolled
// models must match that dimensionality.
core::VectorsByContext phone_vectors(const Corpus& corpus, std::size_t user) {
  core::VectorsByContext out;
  for (const auto& [context, windows] : corpus.user(user).windows) {
    auto& rows = out[context];
    rows.reserve(windows.rows());
    for (std::size_t i = 0; i < windows.rows(); ++i) {
      rows.push_back(Corpus::project(windows.row(i), DeviceConfig::kPhoneOnly));
    }
  }
  return out;
}

struct Fixture {
  Corpus corpus;
  std::unique_ptr<serve::AuthGateway> gateway;
};

// Stands up the live stack every scenario runs against: build a corpus, feed
// the anonymized population with every user's windows FIRST, then enroll each
// user against that complete snapshot (contribute_positives=false) so every
// model has every other user represented in its negatives — sequential
// enroll-with-contribution would train the early users against an empty
// population.
Fixture make_fixture(const ScenarioOptions& options,
                     serve::GatewayConfig gateway_config) {
  CorpusOptions co;
  co.n_users = options.n_users;
  co.windows_per_context = options.windows_per_context;
  co.window_seconds = options.window_seconds;
  co.bluetooth = false;
  co.seed = options.seed;
  Fixture fixture{Corpus::build(co), nullptr};

  gateway_config.window_seconds = options.window_seconds;
  fixture.gateway =
      std::make_unique<serve::AuthGateway>(std::move(gateway_config));

  std::vector<core::VectorsByContext> uploads;
  uploads.reserve(options.n_users);
  for (std::size_t u = 0; u < fixture.corpus.n_users(); ++u) {
    uploads.push_back(phone_vectors(fixture.corpus, u));
    for (const auto& [context, vectors] : uploads.back()) {
      fixture.gateway->contribute(static_cast<int>(u), context, vectors);
    }
  }
  for (std::size_t u = 0; u < fixture.corpus.n_users(); ++u) {
    (void)fixture.gateway->enroll(static_cast<int>(u), uploads[u],
                                  options.seed + 1000 + u,
                                  /*contribute_positives=*/false);
  }
  return fixture;
}

features::FeatureExtractor make_extractor(const ScenarioOptions& options) {
  features::FeatureConfig fc;
  fc.window.window_seconds = options.window_seconds;
  fc.window.hop_seconds = options.window_seconds;
  fc.window.sample_rate_hz = sensors::tuning::kSampleRateHz;
  return features::FeatureExtractor(fc);
}

// Phone-only vectors of one freshly synthesized session.
std::vector<std::vector<double>> collect_vectors(
    const sensors::UserProfile& profile, sensors::UsageContext context,
    double duration_seconds, const features::FeatureExtractor& extractor,
    util::Rng& rng) {
  sensors::CollectorOptions collect;
  collect.with_watch = false;
  collect.bluetooth = false;
  collect.synthesis.duration_seconds = duration_seconds;
  const auto session = sensors::collect_session(profile, context, collect, rng);
  return extractor.auth_vectors(session.phone, nullptr);
}

void require(ScenarioResult& result, bool ok, const std::string& what) {
  if (ok) return;
  result.passed = false;
  result.failures.push_back(what);
}

std::uint64_t counter_or(const obs::Snapshot& snapshot,
                         const std::string& name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

// --- masquerade_campaign ---------------------------------------------------

ScenarioResult run_masquerade_campaign(const ScenarioOptions& options) {
  ScenarioResult result;
  result.name = "masquerade_campaign";

  serve::GatewayConfig gc;
  gc.track_sessions = true;
  Fixture fixture = make_fixture(options, gc);

  attack::CampaignOptions campaign;
  campaign.attackers_per_victim = options.attackers_per_victim;
  campaign.trials_per_attacker = options.trials_per_attacker;
  campaign.attack_seconds = options.attack_seconds;
  campaign.window_seconds = options.window_seconds;
  campaign.with_watch = false;
  campaign.skill = options.skill;
  campaign.seed = options.seed + 101;
  campaign.interleave_genuine = true;

  std::vector<std::size_t> victims(fixture.corpus.n_users());
  for (std::size_t v = 0; v < victims.size(); ++v) victims[v] = v;

  const attack::CampaignResult outcome = attack::run_gateway_campaign(
      *fixture.gateway, fixture.corpus.population(), victims, campaign);

  result.metrics = fixture.gateway->metrics().snapshot();
  result.survival_time_s = outcome.time_seconds;
  result.survival_fraction = outcome.fraction_alive;

  // Serving-side numbers come from the registry snapshot alone — the point
  // of the live harness is that an operator could compute the same values
  // from exported metrics.
  const auto attack_windows = counter_or(result.metrics, "attack.windows");
  const auto attack_accepts = counter_or(result.metrics, "attack.accepts");
  const double far_under_attack =
      attack_windows > 0 ? static_cast<double>(attack_accepts) /
                               static_cast<double>(attack_windows)
                         : 0.0;
  const auto detect_it =
      result.metrics.histograms.find("gateway.session.detection_latency_ns");
  const bool have_latency = detect_it != result.metrics.histograms.end() &&
                            detect_it->second.count > 0;
  const double p50_s =
      have_latency
          ? static_cast<double>(detect_it->second.percentile(0.50)) / 1e9
          : 0.0;
  const double p90_s =
      have_latency
          ? static_cast<double>(detect_it->second.percentile(0.90)) / 1e9
          : 0.0;
  const double p99_s =
      have_latency
          ? static_cast<double>(detect_it->second.percentile(0.99)) / 1e9
          : 0.0;

  result.summary = {
      {"trials", static_cast<double>(outcome.trials)},
      {"attack_windows", static_cast<double>(attack_windows)},
      {"far_under_attack", far_under_attack},
      {"lockouts", static_cast<double>(outcome.lockouts)},
      {"lockout_rate",
       outcome.trials > 0 ? static_cast<double>(outcome.lockouts) /
                                static_cast<double>(outcome.trials)
                          : 0.0},
      {"detection_latency_s_p50", p50_s},
      {"detection_latency_s_p90", p90_s},
      {"detection_latency_s_p99", p99_s},
      {"genuine_accept_rate", outcome.genuine_accept_rate()},
      {"fraction_alive_final", outcome.fraction_alive.empty()
                                   ? 0.0
                                   : outcome.fraction_alive.back()},
  };

  require(result, outcome.trials > 0, "campaign produced no trials");
  require(result, attack_windows > 0, "campaign scored no attack windows");
  require(result,
          !outcome.fraction_alive.empty() && outcome.fraction_alive[0] == 1.0,
          "survival curve must start at 1.0");
  require(result,
          std::is_sorted(outcome.fraction_alive.rbegin(),
                         outcome.fraction_alive.rend()),
          "survival curve must be monotone non-increasing");
  require(result, far_under_attack > 0.0,
          "FAR-under-attack is zero: the mimic never beat the model, so the "
          "accept-then-lock path went unexercised");
  require(result, outcome.lockouts > 0,
          "no attack trial was ever locked out");
  require(result, have_latency && p50_s > 0.0,
          "detection-latency histogram is empty or p50 is zero");
  require(result, outcome.genuine_accept_rate() > 0.5,
          "interleaved genuine traffic mostly rejected");
  return result;
}

// --- pickup_moment ---------------------------------------------------------

ScenarioResult run_pickup_moment(const ScenarioOptions& options) {
  ScenarioResult result;
  result.name = "pickup_moment";

  Fixture fixture = make_fixture(options, serve::GatewayConfig{});
  const auto extractor = make_extractor(options);
  util::Rng rng = util::Rng(options.seed).fork(31);

  // A pick-up is the start of a moving bout; the lagging context detector
  // still reports the pre-pickup stationary context for the first windows,
  // so the transient is scored both ways: under the matched moving model and
  // under the stale stationary one the lag would actually serve.
  const double session_seconds =
      static_cast<double>(options.pickup_windows + 4) * options.window_seconds;
  std::size_t transient_windows = 0, transient_matched_rejects = 0;
  std::size_t transient_mismatched_rejects = 0;
  std::size_t steady_windows = 0, steady_rejects = 0;

  for (std::size_t u = 0; u < fixture.corpus.n_users(); ++u) {
    const int token = static_cast<int>(u);
    const auto& profile = fixture.corpus.population().user(u);
    for (std::size_t s = 0; s < options.pickup_sessions; ++s) {
      const auto vectors =
          collect_vectors(profile, sensors::UsageContext::kMoving,
                          session_seconds, extractor, rng);
      const std::size_t split =
          std::min<std::size_t>(options.pickup_windows, vectors.size());
      const std::vector<std::vector<double>> transient(
          vectors.begin(), vectors.begin() + static_cast<long>(split));
      const std::vector<std::vector<double>> steady(
          vectors.begin() + static_cast<long>(split), vectors.end());

      for (const auto& decision :
           fixture.gateway->score_batch(token, kMoving, transient)) {
        ++transient_windows;
        if (!decision.accepted) ++transient_matched_rejects;
      }
      for (const auto& decision :
           fixture.gateway->score_batch(token, kStationary, transient)) {
        if (!decision.accepted) ++transient_mismatched_rejects;
      }
      for (const auto& decision :
           fixture.gateway->score_batch(token, kMoving, steady)) {
        ++steady_windows;
        if (!decision.accepted) ++steady_rejects;
      }
    }
  }

  const auto rate = [](std::size_t num, std::size_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  const double frr_matched = rate(transient_matched_rejects, transient_windows);
  const double frr_mismatched =
      rate(transient_mismatched_rejects, transient_windows);
  const double frr_steady = rate(steady_rejects, steady_windows);

  result.metrics = fixture.gateway->metrics().snapshot();
  result.summary = {
      {"transient_windows", static_cast<double>(transient_windows)},
      {"steady_windows", static_cast<double>(steady_windows)},
      {"pickup_frr_matched", frr_matched},
      {"pickup_frr_mismatched", frr_mismatched},
      {"steady_frr", frr_steady},
      {"context_mismatch_penalty", frr_mismatched - frr_matched},
  };

  require(result, transient_windows > 0 && steady_windows > 0,
          "no pickup windows were scored");
  require(result, frr_matched <= 1.0 && frr_mismatched <= 1.0,
          "FRR out of range");
  // Directional with slack: per-window FRR estimates are noisy at smoke
  // sizes, but the stale model decisively out-scoring the matched one means
  // the context routing itself is broken.
  require(result, frr_mismatched + 0.25 >= frr_matched,
          "stale-context scoring decisively beat the matched model");
  return result;
}

// --- behavioral_drift ------------------------------------------------------

ScenarioResult run_behavioral_drift(const ScenarioOptions& options) {
  ScenarioResult result;
  result.name = "behavioral_drift";

  serve::GatewayConfig gc;
  gc.track_sessions = true;
  // Genuine confidences sit near +1 against a fresh model and decay toward 0
  // as behaviour drifts; epsilon below that healthy level (but generous
  // enough that drifted traffic lands in [0, eps) before going negative)
  // makes the §V-I trigger observable within the simulated horizon.
  gc.confidence.epsilon = 0.6;
  gc.confidence.trigger_days = 1.5;
  gc.confidence.window_days = 3.0;
  gc.confidence.min_observations = 6;
  Fixture fixture = make_fixture(options, gc);
  const auto extractor = make_extractor(options);
  util::Rng rng = util::Rng(options.seed).fork(47);

  const sensors::BehavioralDrift drift(options.seed + 7,
                                       options.drift_days + 1.0,
                                       options.drift_rate_scale);
  const double bout_seconds = 6.0 * options.window_seconds;

  std::size_t total_windows = 0, total_accepts = 0;
  double accept_day0 = 0.0, accept_min = 1.0, accept_final = 0.0;
  std::size_t retrains_run = 0;

  for (double day = 0.0; day <= options.drift_days; day += 1.0) {
    std::size_t day_windows = 0, day_accepts = 0;
    for (std::size_t u = 0; u < fixture.corpus.n_users(); ++u) {
      const int token = static_cast<int>(u);
      // Each simulated day starts from an explicit re-auth: a lockout caused
      // by drifted-but-genuine traffic must not freeze the confidence feed
      // for the rest of the horizon.
      fixture.gateway->reset_session(token);
      const auto profile =
          drift.apply(fixture.corpus.population().user(u), day);
      for (const auto raw : {sensors::UsageContext::kStationaryUse,
                             sensors::UsageContext::kMoving}) {
        const auto vectors =
            collect_vectors(profile, raw, bout_seconds, extractor, rng);
        const auto decisions = fixture.gateway->score_batch(
            token, sensors::collapse_context(raw), vectors, day);
        for (const auto& decision : decisions) {
          ++day_windows;
          if (decision.accepted) ++day_accepts;
        }
      }
      if (fixture.gateway->confidence_retrain_needed(token)) {
        // §V-I response: retrain from freshly collected (drifted) behaviour
        // through the gateway's own async queue; install resets the monitor.
        core::VectorsByContext positives;
        for (const auto raw : {sensors::UsageContext::kStationaryUse,
                               sensors::UsageContext::kMoving}) {
          auto& rows = positives[sensors::collapse_context(raw)];
          for (int bout = 0; bout < 4; ++bout) {
            auto fresh =
                collect_vectors(profile, raw, bout_seconds, extractor, rng);
            rows.insert(rows.end(), std::make_move_iterator(fresh.begin()),
                        std::make_move_iterator(fresh.end()));
          }
        }
        fixture.gateway
            ->report_drift(token, std::move(positives),
                           options.seed + 2000 + retrains_run)
            .get();
        ++retrains_run;
      }
    }
    const double day_rate =
        day_windows > 0
            ? static_cast<double>(day_accepts) / static_cast<double>(day_windows)
            : 0.0;
    if (day == 0.0) accept_day0 = day_rate;
    accept_min = std::min(accept_min, day_rate);
    accept_final = day_rate;
    total_windows += day_windows;
    total_accepts += day_accepts;
  }

  result.metrics = fixture.gateway->metrics().snapshot();
  const auto trigger_count =
      counter_or(result.metrics, "gateway.confidence.retrain_triggers");
  result.summary = {
      {"days", options.drift_days},
      {"windows", static_cast<double>(total_windows)},
      {"retrain_triggers", static_cast<double>(trigger_count)},
      {"retrains_run", static_cast<double>(retrains_run)},
      {"accept_rate_day0", accept_day0},
      {"accept_rate_min", accept_min},
      {"accept_rate_final", accept_final},
      {"accept_rate_overall",
       total_windows > 0 ? static_cast<double>(total_accepts) /
                               static_cast<double>(total_windows)
                         : 0.0},
  };

  require(result, total_windows > 0, "no drift windows were scored");
  require(result, trigger_count >= 1,
          "confidence monitor never demanded a retrain over the horizon");
  require(result, retrains_run >= 1, "no retrain ran through report_drift");
  require(result, accept_min < accept_day0,
          "drift never depressed the accept rate");
  // Whether the final day sits above the minimum depends on where in the
  // drift walk the horizon ends, so the recovery check is a floor on the
  // whole run: with retrains active, overall acceptance must stay usable.
  require(result,
          total_accepts * 2 > total_windows,
          "retraining failed to keep the overall accept rate above 50%");
  return result;
}

// --- flash_crowd -----------------------------------------------------------

ScenarioResult run_flash_crowd(const ScenarioOptions& options) {
  ScenarioResult result;
  result.name = "flash_crowd";

  Fixture fixture = make_fixture(options, serve::GatewayConfig{});

  // Held-out batches straight from the corpus (no live synthesis in the
  // timed region): one stationary batch per user, reused every round.
  std::vector<std::vector<std::vector<double>>> batches;
  batches.reserve(fixture.corpus.n_users());
  const std::size_t batch_windows = 10;
  for (std::size_t u = 0; u < fixture.corpus.n_users(); ++u) {
    const auto& windows = fixture.corpus.user(u).windows.at(kStationary);
    std::vector<std::vector<double>> batch;
    for (std::size_t i = 0; i < std::min(batch_windows, windows.rows()); ++i) {
      batch.push_back(
          Corpus::project(windows.row(i), DeviceConfig::kPhoneOnly));
    }
    batches.push_back(std::move(batch));
  }

  const std::size_t requests = fixture.corpus.n_users() * options.burst_rounds;
  util::Stopwatch timer;
  for (std::size_t r = 0; r < requests; ++r) {
    const std::size_t u = r % fixture.corpus.n_users();
    (void)fixture.gateway->score_batch(static_cast<int>(u), kStationary,
                                       batches[u]);
  }
  const double steady_s = timer.elapsed_seconds();

  // The flash crowd: the same request volume arrives at once and is scored
  // concurrently — contention on the model cache and the scoring path is
  // what this phase measures.
  timer.reset();
  util::parallel_for(requests, [&](std::size_t r) {
    const std::size_t u = r % fixture.corpus.n_users();
    (void)fixture.gateway->score_batch(static_cast<int>(u), kStationary,
                                       batches[u]);
  });
  const double burst_s = timer.elapsed_seconds();

  result.metrics = fixture.gateway->metrics().snapshot();
  const auto score_it = result.metrics.histograms.find("gateway.score_ns");
  const double score_p50_us =
      score_it != result.metrics.histograms.end()
          ? static_cast<double>(score_it->second.percentile(0.50)) / 1e3
          : 0.0;
  const double score_p99_us =
      score_it != result.metrics.histograms.end()
          ? static_cast<double>(score_it->second.percentile(0.99)) / 1e3
          : 0.0;
  const double windows_total =
      static_cast<double>(requests * batch_windows);
  result.summary = {
      {"requests_per_phase", static_cast<double>(requests)},
      {"steady_windows_per_s", steady_s > 0.0 ? windows_total / steady_s : 0.0},
      {"burst_windows_per_s", burst_s > 0.0 ? windows_total / burst_s : 0.0},
      {"burst_speedup", burst_s > 0.0 ? steady_s / burst_s : 0.0},
      {"score_us_p50", score_p50_us},
      {"score_us_p99", score_p99_us},
  };

  require(result, requests > 0, "no flash-crowd requests issued");
  require(result, steady_s > 0.0 && burst_s > 0.0,
          "phase timers recorded no elapsed time");
  require(result, score_p50_us > 0.0, "gateway.score_ns histogram is empty");
  return result;
}

// --- disk_fault_storm ------------------------------------------------------

ScenarioResult run_disk_fault_storm(const ScenarioOptions& options) {
  ScenarioResult result;
  result.name = "disk_fault_storm";

  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("sy_storm_" + std::to_string(options.seed) + "_" +
        std::to_string(static_cast<long>(::getpid()))))
          .string();
  std::filesystem::remove_all(root);

  // One ChaosController models the whole persistence VOLUME: log sinks,
  // snapshot writes, and model-bundle writes all consult it. Faulting only
  // the log would be too gentle — the store's heal-by-compaction would
  // succeed immediately and the breaker would never open.
  auto chaos = std::make_shared<serve::ChaosController>();
  serve::GatewayConfig gc;
  gc.persist_dir = root + "/pop";
  gc.model_dir = root + "/models";
  gc.persist_sync_every = 1;
  gc.persist_compact_threshold = 64;
  gc.breaker.failure_threshold = 2;
  gc.breaker.cooldown_ns = 20'000'000;  // recover within the scenario
  gc.io_retry.max_attempts = 2;
  gc.io_retry.base_delay_ns = 50'000;
  // Backoff against an armed fault plan is a pure wait; skip it for speed.
  gc.io_sleep = [](std::uint64_t) {};
  gc.persist_sink_factory =
      [chaos](const std::string& path, std::size_t) -> std::unique_ptr<serve::LogSink> {
    return std::make_unique<serve::ChaosLogSink>(
        std::make_unique<serve::FileLogSink>(path), chaos, path);
  };
  gc.persist_snapshot_writer = [chaos](const std::string& path,
                                       std::size_t shard,
                                       std::size_t shard_count,
                                       std::uint64_t last_seq,
                                       const core::PopulationStore& segment) {
    if (chaos->next_append_action() == serve::ChaosController::Action::kError) {
      throw serve::IoError("snapshot(chaos)", path, EIO);
    }
    serve::write_shard_snapshot(path, shard, shard_count, last_seq, segment);
  };
  gc.bundle_writer = [chaos](const std::vector<std::uint8_t>& bytes,
                             const std::string& path) {
    if (chaos->next_append_action() == serve::ChaosController::Action::kError) {
      throw serve::IoError("bundle(chaos)", path, EIO);
    }
    core::ModelStore::save_bytes(bytes, path);
  };

  Fixture fixture = make_fixture(options, gc);
  const auto extractor = make_extractor(options);
  util::Rng rng = util::Rng(options.seed).fork(83);

  // Storm: every subsequent disk operation fails with EIO until disarmed.
  chaos->arm(serve::parse_fault_plan("error"));
  std::size_t storm_requests = 0, storm_score_failures = 0;
  std::size_t storm_contribute_failures = 0;
  for (std::size_t round = 0; round < options.storm_rounds; ++round) {
    for (std::size_t u = 0; u < fixture.corpus.n_users(); ++u) {
      const int token = static_cast<int>(u);
      const auto vectors = collect_vectors(
          fixture.corpus.population().user(u),
          sensors::UsageContext::kStationaryUse, 2.0 * options.window_seconds,
          extractor, rng);
      ++storm_requests;
      // The headline invariant: mid-storm, contributions are still acked
      // (deferred in memory) and scoring still answers from cached models.
      try {
        fixture.gateway->contribute(token, kStationary, vectors);
      } catch (const std::exception&) {
        ++storm_contribute_failures;
      }
      try {
        (void)fixture.gateway->score_batch(token, kStationary, vectors);
      } catch (const std::exception&) {
        ++storm_score_failures;
      }
    }
  }
  // A model going live mid-storm: cached and served, its bundle deferred.
  (void)fixture.gateway->enroll(0, phone_vectors(fixture.corpus, 0),
                                options.seed + 77,
                                /*contribute_positives=*/false);
  const bool opened_during_storm =
      fixture.gateway->persistence_breaker().state() !=
      serve::CircuitBreaker::State::kClosed;

  // Recovery: the volume heals, the cooldown elapses, and the next
  // contribution per user is (or follows) the half-open probe whose success
  // closes the breaker and kicks the asynchronous backlog replay.
  chaos->disarm();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  for (std::size_t u = 0; u < fixture.corpus.n_users(); ++u) {
    const auto vectors = collect_vectors(
        fixture.corpus.population().user(u),
        sensors::UsageContext::kStationaryUse, options.window_seconds,
        extractor, rng);
    fixture.gateway->contribute(static_cast<int>(u), kStationary, vectors);
  }
  fixture.gateway->wait_idle();
  fixture.gateway->wait_replay_idle();

  result.metrics = fixture.gateway->metrics().snapshot();
  const auto deferred = counter_or(result.metrics, "store.log_deferred");
  const auto flushed = counter_or(result.metrics, "store.deferred_flushed");
  const auto breaker_opens =
      counter_or(result.metrics, "gateway.breaker.opens");
  const auto bundles_deferred =
      counter_or(result.metrics, "gateway.bundles_deferred");
  const auto bundles_replayed =
      counter_or(result.metrics, "gateway.bundles_replayed");
  const double degraded_ms =
      static_cast<double>(
          fixture.gateway->persistence_breaker().degraded_ns()) /
      1e6;
  const std::uint64_t still_deferred = fixture.gateway->store()
                                           .deferred_records();
  const std::size_t pending_bundles = fixture.gateway->pending_bundle_count();
  const bool closed_at_end = fixture.gateway->persistence_breaker().state() ==
                             serve::CircuitBreaker::State::kClosed;

  // Zero-loss proof: serialize the live population, restart-from-disk into a
  // fresh store, and require byte-identical serializations (the codec is
  // deterministic, and both merge in shard-index order).
  const auto live_bytes =
      core::serialize_population(*fixture.gateway->store().snapshot());
  std::size_t live_vectors = 0;
  for (const auto& [context, bucket] : *fixture.gateway->store().snapshot()) {
    live_vectors += bucket.size();
  }
  fixture.gateway.reset();  // release the shard logs before re-attaching
  serve::ShardedPopulationStore recovered_store(gc.shards);
  serve::PersistenceOptions popts;
  popts.dir = gc.persist_dir;
  (void)recovered_store.attach_persistence(popts);
  const auto recovered_snapshot = recovered_store.snapshot();
  std::size_t recovered_vectors = 0;
  for (const auto& [context, bucket] : *recovered_snapshot) {
    recovered_vectors += bucket.size();
  }
  const bool digest_match =
      core::serialize_population(*recovered_snapshot) == live_bytes;
  std::filesystem::remove_all(root);

  result.summary = {
      {"storm_requests", static_cast<double>(storm_requests)},
      {"storm_score_failures", static_cast<double>(storm_score_failures)},
      {"storm_contribute_failures",
       static_cast<double>(storm_contribute_failures)},
      {"breaker_opens", static_cast<double>(breaker_opens)},
      {"degraded_ms", degraded_ms},
      {"records_deferred", static_cast<double>(deferred)},
      {"records_flushed", static_cast<double>(flushed)},
      {"bundles_deferred", static_cast<double>(bundles_deferred)},
      {"bundles_replayed", static_cast<double>(bundles_replayed)},
      {"injected_contributions", static_cast<double>(live_vectors)},
      {"recovered_contributions", static_cast<double>(recovered_vectors)},
      {"digest_match", digest_match ? 1.0 : 0.0},
  };

  require(result, storm_requests > 0, "storm drove no requests");
  require(result, storm_score_failures == 0,
          "a score request failed during the fault storm");
  require(result, storm_contribute_failures == 0,
          "a contribution was rejected (not acked) during the fault storm");
  require(result, opened_during_storm && breaker_opens >= 1,
          "the persistence breaker never opened under sustained EIO");
  require(result, deferred > 0,
          "no log record was deferred — the storm missed the write path");
  require(result, still_deferred == 0 && flushed >= deferred,
          "deferred records were not fully replayed after recovery");
  require(result, bundles_deferred >= 1 && pending_bundles == 0,
          "the mid-storm model bundle was not deferred and replayed");
  require(result, bundles_replayed >= 1,
          "no deferred bundle was written back on recovery");
  require(result, closed_at_end, "breaker still open after the volume healed");
  require(result, digest_match && recovered_vectors == live_vectors,
          "recovered population diverges from the live one — acknowledged "
          "contributions were lost");
  return result;
}

// --- overload_shed ---------------------------------------------------------

// The calling thread's simulated clock (overload_shed's simulated mode).
util::SimClock& thread_sim_clock() {
  thread_local util::SimClock clock;
  return clock;
}

// Nearest-rank 99th percentile, in microseconds.
double p99_us(std::vector<std::int64_t> latencies_ns) {
  if (latencies_ns.empty()) return 0.0;
  std::sort(latencies_ns.begin(), latencies_ns.end());
  const std::size_t rank = (latencies_ns.size() * 99 + 99) / 100;
  return static_cast<double>(latencies_ns[rank - 1]) / 1e3;
}

ScenarioResult run_overload_shed(const ScenarioOptions& options) {
  ScenarioResult result;
  result.name = "overload_shed";

  // Latency is read off the gateway clock. By default that is the steady
  // clock, so accepted latency is wall time. With a simulated service time,
  // every thread owns a util::SimClock that the gateway clock reads and
  // that each accepted request advances by exactly that cost, so the p99
  // invariant no longer depends on how the host schedules the threads.
  const std::int64_t sim_service_ns = options.overload_sim_service_ns;
  serve::GatewayConfig gc;
  gc.admission.max_concurrent = options.overload_max_concurrent;
  if (sim_service_ns > 0) gc.clock = [] { return thread_sim_clock().now_ns(); };
  Fixture fixture = make_fixture(options, gc);

  // Heavy batches (rows cycled): each request must occupy its admission slot
  // long enough that a thread burst actually collides with the concurrency
  // bound — microsecond-scale requests would drain before overlapping. The
  // SAME batches serve baseline and burst, so the p99 comparison is fair.
  const std::size_t batch_windows = 48;
  std::vector<std::vector<std::vector<double>>> batches;
  batches.reserve(fixture.corpus.n_users());
  for (std::size_t u = 0; u < fixture.corpus.n_users(); ++u) {
    const auto& windows = fixture.corpus.user(u).windows.at(kStationary);
    std::vector<std::vector<double>> batch;
    batch.reserve(batch_windows);
    for (std::size_t i = 0; i < batch_windows; ++i) {
      batch.push_back(Corpus::project(windows.row(i % windows.rows()),
                                      DeviceConfig::kPhoneOnly));
    }
    batches.push_back(std::move(batch));
  }

  // One request; returns its latency on the gateway clock if accepted and
  // rethrows OverloadError if shed.
  const auto timed_score = [&](std::size_t u) {
    const std::int64_t start = fixture.gateway->now_ns();
    (void)fixture.gateway->score_batch(static_cast<int>(u), kStationary,
                                       batches[u]);
    if (sim_service_ns > 0) thread_sim_clock().advance_ns(sim_service_ns);
    return fixture.gateway->now_ns() - start;
  };

  // Phase 1 — unloaded baseline: sequential requests, no contention. The
  // floor keeps the baseline p99 from being the max of a handful of samples.
  const std::size_t baseline_requests = std::max<std::size_t>(
      fixture.corpus.n_users() * options.burst_rounds, 32);
  std::vector<std::int64_t> baseline_ns;
  for (std::size_t r = 0; r < baseline_requests; ++r) {
    baseline_ns.push_back(timed_score(r % fixture.corpus.n_users()));
  }

  // Phase 2 — the burst: more client threads than admission slots. Excess
  // requests shed (typed OverloadError) rather than queue; a shed client
  // backs off briefly, as a well-behaved caller would. This phase is the
  // p99-under-load measurement; whether it actually sheds depends on how
  // the scheduler interleaves the threads (on one core, short requests may
  // never overlap), so the shed PROOF is phase 3, not this.
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> burst_shed{0};
  std::vector<std::vector<std::int64_t>> burst_ns(options.overload_threads);
  std::vector<std::thread> clients;
  clients.reserve(options.overload_threads);
  for (std::size_t t = 0; t < options.overload_threads; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t r = 0; r < options.overload_requests_per_thread; ++r) {
        const std::size_t u = (t + r) % fixture.corpus.n_users();
        try {
          burst_ns[t].push_back(timed_score(u));
          accepted.fetch_add(1, std::memory_order_relaxed);
        } catch (const serve::OverloadError&) {
          burst_shed.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  std::vector<std::int64_t> all_burst_ns;
  for (const auto& thread_ns : burst_ns) {
    all_burst_ns.insert(all_burst_ns.end(), thread_ns.begin(), thread_ns.end());
  }

  // Phase 3 — deterministic saturation (after the burst, so the occupiers'
  // multi-millisecond scores never pollute the burst latencies):
  // one occupier thread per admission slot loops a mega-batch whose scoring
  // holds its slot for milliseconds, while this thread waits for the
  // inflight gauge to show every slot taken and then probes. A probe can
  // slip into the microsecond gap while an occupier re-admits, so probe
  // until a shed is observed (bounded), counting lucky accepts honestly.
  std::vector<std::vector<double>> mega;
  mega.reserve(batch_windows * 32);
  for (std::size_t i = 0; i < 32; ++i) {
    mega.insert(mega.end(), batches[0].begin(), batches[0].end());
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> occupiers;
  occupiers.reserve(options.overload_max_concurrent);
  for (std::size_t t = 0; t < options.overload_max_concurrent; ++t) {
    occupiers.emplace_back([&, t] {
      const std::size_t u = t % fixture.corpus.n_users();
      while (!stop.load(std::memory_order_relaxed)) {
        try {
          (void)fixture.gateway->score_batch(static_cast<int>(u), kStationary,
                                             mega);
        } catch (const serve::OverloadError&) {
          std::this_thread::yield();  // a probe beat us to the slot; retry
        }
      }
    });
  }
  std::size_t probe_shed = 0, probe_accepted = 0;
  for (std::size_t attempt = 0; attempt < 200 && probe_shed == 0; ++attempt) {
    for (std::size_t spin = 0;
         spin < 20000 && fixture.gateway->admission().inflight() <
                             options.overload_max_concurrent;
         ++spin) {
      std::this_thread::yield();
    }
    try {
      (void)fixture.gateway->score_batch(0, kStationary, batches[0]);
      ++probe_accepted;
    } catch (const serve::OverloadError& e) {
      if (e.reason() == serve::OverloadReason::kSaturated) ++probe_shed;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& occupier : occupiers) occupier.join();
  const std::uint64_t shed_total = burst_shed.load() + probe_shed;

  // Phase 4 — deadline shedding, deterministic: a budget that has already
  // expired must be rejected as kDeadline before any scoring work runs.
  std::size_t deadline_shed = 0;
  try {
    (void)fixture.gateway->score_batch_within(0, kStationary, batches[0],
                                              fixture.gateway->now_ns() - 1);
  } catch (const serve::OverloadError& e) {
    if (e.reason() == serve::OverloadReason::kDeadline) ++deadline_shed;
  }

  result.metrics = fixture.gateway->metrics().snapshot();
  const double base_p99_us = p99_us(baseline_ns);
  const double burst_p99_us = p99_us(all_burst_ns);
  const double p99_ratio =
      base_p99_us > 0.0 ? burst_p99_us / base_p99_us : 0.0;
  const auto shed_saturated =
      counter_or(result.metrics, "gateway.admission.shed_saturated");
  const auto shed_deadline =
      counter_or(result.metrics, "gateway.admission.shed_deadline");
  const auto inflight_it =
      result.metrics.gauges.find("gateway.admission.inflight");
  const std::int64_t inflight_now =
      inflight_it == result.metrics.gauges.end() ? -1 : inflight_it->second;

  const std::uint64_t issued =
      options.overload_threads * options.overload_requests_per_thread;
  result.summary = {
      {"issued_requests", static_cast<double>(issued)},
      {"accepted_requests", static_cast<double>(accepted.load())},
      {"shed_requests", static_cast<double>(shed_total)},
      {"probe_shed", static_cast<double>(probe_shed)},
      {"probe_accepted", static_cast<double>(probe_accepted)},
      {"shed_deadline", static_cast<double>(deadline_shed)},
      {"baseline_p99_us", base_p99_us},
      {"burst_p99_us", burst_p99_us},
      {"accepted_p99_ratio", p99_ratio},
  };

  require(result, accepted.load() > 0, "the burst admitted nothing");
  require(result, probe_shed > 0,
          "no probe shed against fully occupied slots — admission control "
          "never engaged");
  require(result, accepted.load() + burst_shed.load() == issued,
          "requests unaccounted for: something neither returned nor shed");
  require(result, shed_saturated >= shed_total,
          "gateway.admission.shed_saturated disagrees with observed sheds");
  require(result, deadline_shed == 1 && shed_deadline >= 1,
          "an already-expired deadline was not shed as kDeadline");
  require(result, inflight_now == 0,
          "admission inflight gauge nonzero after the burst drained");
  require(result, base_p99_us > 0.0 && burst_p99_us > 0.0,
          "no accepted latency measured in a phase");
  // The headline invariant: shedding keeps ACCEPTED latency flat — had the
  // gate QUEUED instead of shed, the burst tail would sit behind the whole
  // backlog ((issued / slots) x service time, i.e. several milliseconds even
  // at the smoke scale). The +1500 us absolute slack is an OS scheduler
  // timeslice: on a machine with fewer cores than client threads, a request
  // can absorb a preemption mid-flight, which no admission policy prevents
  // — still several times below what queuing would produce.
  {
    std::ostringstream msg;
    msg << "accepted-request p99 blew past 2x the unloaded baseline: burst "
        << burst_p99_us << " us vs baseline " << base_p99_us << " us";
    require(result, burst_p99_us <= 2.0 * base_p99_us + 1500.0, msg.str());
  }
  return result;
}

}  // namespace

const std::vector<std::string>& scenario_names() {
  static const std::vector<std::string> names = {
      "masquerade_campaign",
      "pickup_moment",
      "behavioral_drift",
      "flash_crowd",
      "disk_fault_storm",
      "overload_shed",
  };
  return names;
}

ScenarioResult run_scenario(const std::string& name,
                            const ScenarioOptions& options) {
  if (name == "masquerade_campaign") return run_masquerade_campaign(options);
  if (name == "pickup_moment") return run_pickup_moment(options);
  if (name == "behavioral_drift") return run_behavioral_drift(options);
  if (name == "flash_crowd") return run_flash_crowd(options);
  if (name == "disk_fault_storm") return run_disk_fault_storm(options);
  if (name == "overload_shed") return run_overload_shed(options);
  throw std::invalid_argument("unknown scenario: " + name);
}

double ScenarioResult::summary_value(const std::string& key,
                                     double fallback) const {
  for (const auto& [k, v] : summary) {
    if (k == key) return v;
  }
  return fallback;
}

namespace {

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

void json_array(std::ostringstream& out, const std::vector<double>& values) {
  out << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out << ", ";
    out << json_number(values[i]);
  }
  out << ']';
}

}  // namespace

std::string scenario_json(const ScenarioResult& result) {
  std::ostringstream out;
  out << "{\n"
      << "  \"bench\": \"bench_scenarios\",\n"
      << "  \"scenario\": " << json_string(result.name) << ",\n"
      << "  \"passed\": " << (result.passed ? "true" : "false") << ",\n";
  out << "  \"failures\": [";
  for (std::size_t i = 0; i < result.failures.size(); ++i) {
    if (i > 0) out << ", ";
    out << json_string(result.failures[i]);
  }
  out << "],\n";
  out << "  \"summary\": {";
  for (std::size_t i = 0; i < result.summary.size(); ++i) {
    if (i > 0) out << ",";
    out << "\n    " << json_string(result.summary[i].first) << ": "
        << json_number(result.summary[i].second);
  }
  out << "\n  },\n";
  out << "  \"survival\": {\"time_s\": ";
  json_array(out, result.survival_time_s);
  out << ", \"fraction_alive\": ";
  json_array(out, result.survival_fraction);
  out << "},\n";
  out << "  \"metrics\":\n" << obs::to_json(result.metrics, 2) << "\n";
  out << "}\n";
  return out.str();
}

}  // namespace sy::analysis
