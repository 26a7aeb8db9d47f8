// Batched multi-user enrollment throughput: AuthServer::train_user_models
// (work-stealing ThreadPool) vs. the sequential train_user_model loop, on
// identical synthetic populations. Also proves the determinism contract: a
// batch of one must be bit-identical to train_user_model given the same
// store, config, and RNG seed.
//
// Per-user enrollment latency is recorded through obs::Span into a local
// metrics registry (bench.enroll_sequential_ns / bench.enroll_batch_ns), and
// --json=PATH writes an artifact with p50/p95/p99/max from those histograms
// plus the full registry snapshot (pool.* gauges included) under "metrics".
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/auth_server.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "util/args.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace sy;

namespace {

constexpr int kDim = 28;

std::vector<std::vector<double>> user_vectors(int user, std::size_t n,
                                              util::Rng& rng) {
  // Each user is a Gaussian cloud around a per-user center; enough structure
  // for KRR to have a nontrivial fit, cheap enough to generate at scale.
  std::vector<std::vector<double>> out;
  out.reserve(n);
  util::Rng center_rng = util::Rng(9000 + static_cast<std::uint64_t>(user));
  std::vector<double> center(kDim);
  for (auto& c : center) c = center_rng.uniform(-2.0, 2.0);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> v(kDim);
    for (int d = 0; d < kDim; ++d) v[d] = rng.gaussian(center[d], 1.0);
    out.push_back(std::move(v));
  }
  return out;
}

bool models_identical(const core::AuthModel& a, const core::AuthModel& b) {
  if (a.models().size() != b.models().size()) return false;
  for (const auto& [context, cm] : a.models()) {
    if (!b.has_context(context)) return false;
    const auto& other = b.context_model(context);
    if (cm.classifier.pack() != other.classifier.pack()) return false;
    if (cm.scaler.pack() != other.scaler.pack()) return false;
  }
  return true;
}

}  // namespace

int run(int argc, char** argv);

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_batch_training: %s\n", e.what());
    return 1;
  }
}

int run(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto n_users = static_cast<std::size_t>(args.get_int("users", 8));
  const auto windows = static_cast<std::size_t>(args.get_int("windows", 360));
  const auto reps = static_cast<std::size_t>(args.get_int("reps", 3));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  // 0 = hardware concurrency.
  const auto threads = static_cast<unsigned>(args.get_int("threads", 0));

  const auto contexts = {sensors::DetectedContext::kStationary,
                         sensors::DetectedContext::kMoving};

  // Identical positives + store contents for both servers.
  std::vector<core::VectorsByContext> positives(n_users);
  util::Rng data_rng(seed);
  for (std::size_t u = 0; u < n_users; ++u) {
    for (const auto context : contexts) {
      positives[u][context] =
          user_vectors(static_cast<int>(u), windows, data_rng);
    }
  }

  util::ThreadPool pool(threads);
  core::AuthServer sequential;
  core::AuthServer batched({}, {}, nullptr, &pool);
  for (std::size_t u = 0; u < n_users; ++u) {
    for (const auto& [context, vectors] : positives[u]) {
      sequential.contribute(static_cast<int>(u), context, vectors);
      batched.contribute(static_cast<int>(u), context, vectors);
    }
  }

  std::vector<core::EnrollmentRequest> requests(n_users);
  for (std::size_t u = 0; u < n_users; ++u) {
    requests[u].user_token = static_cast<int>(u);
    requests[u].positives = &positives[u];
    requests[u].rng_seed = seed + 100 + u;
  }

  std::printf(
      "Batched enrollment — %zu users x %zu contexts x %zu windows, "
      "%u pool workers\n",
      n_users, contexts.size(), windows, pool.size());

  // --- Correctness: batch-of-1 vs. the sequential path --------------------
  {
    util::Rng rng(requests[0].rng_seed);
    const core::AuthModel seq_model = sequential.train_user_model(
        requests[0].user_token, positives[0], rng, requests[0].version);
    const auto batch_models = batched.train_user_models(
        std::span<const core::EnrollmentRequest>(requests.data(), 1));
    const bool identical = models_identical(seq_model, batch_models[0]);
    std::printf("batch-of-1 bit-identical to sequential: %s\n",
                identical ? "yes" : "NO");
    if (!identical) return 1;
  }

  // --- Throughput ---------------------------------------------------------
  // Per-user sequential latency and whole-batch latency land in histograms
  // (the percentile source for the JSON artifact); pool stats ride along as
  // callback gauges.
  obs::Registry registry;
  obs::Histogram* seq_ns = &registry.histogram("bench.enroll_sequential_ns");
  obs::Histogram* batch_ns = &registry.histogram("bench.enroll_batch_ns");
  obs::bind_thread_pool(registry, pool);

  double seq_best = 1e300;
  double batch_best = 1e300;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    util::Stopwatch timer;
    for (std::size_t u = 0; u < n_users; ++u) {
      util::Rng rng(requests[u].rng_seed);
      obs::Span span(seq_ns);
      (void)sequential.train_user_model(requests[u].user_token, positives[u],
                                        rng, requests[u].version);
    }
    seq_best = std::min(seq_best, timer.elapsed_seconds());

    timer.reset();
    {
      obs::Span span(batch_ns);
      (void)batched.train_user_models(requests);
    }
    batch_best = std::min(batch_best, timer.elapsed_seconds());
  }

  const double seq_rate = static_cast<double>(n_users) / seq_best;
  const double batch_rate = static_cast<double>(n_users) / batch_best;
  const double speedup = batch_rate / seq_rate;
  const obs::Snapshot metrics = registry.snapshot();
  const auto& seq_hist = metrics.histograms.at("bench.enroll_sequential_ns");
  std::printf("sequential: %.3f s (%.2f users/s)\n", seq_best, seq_rate);
  std::printf(
      "            per-user p50 %.3f ms  p95 %.3f ms  p99 %.3f ms  "
      "max %.3f ms\n",
      static_cast<double>(seq_hist.percentile(0.50)) / 1e6,
      static_cast<double>(seq_hist.percentile(0.95)) / 1e6,
      static_cast<double>(seq_hist.percentile(0.99)) / 1e6,
      static_cast<double>(seq_hist.max) / 1e6);
  std::printf("batched:    %.3f s (%.2f users/s)\n", batch_best, batch_rate);
  std::printf("speedup:    %.2fx\n", speedup);

  const std::string json_path = args.get("json", "");
  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (!json) {
      std::fprintf(stderr, "bench_batch_training: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
    json << "{\n"
         << "  \"bench\": \"bench_batch_training\",\n"
         << "  \"users\": " << n_users << ",\n"
         << "  \"windows\": " << windows << ",\n"
         << "  \"threads\": " << pool.size() << ",\n"
         << "  \"sequential_seconds\": " << seq_best << ",\n"
         << "  \"batched_seconds\": " << batch_best << ",\n"
         << "  \"speedup\": " << speedup << ",\n"
         << "  \"enroll_latency_ms\": {\"p50\": "
         << static_cast<double>(seq_hist.percentile(0.50)) / 1e6
         << ", \"p95\": "
         << static_cast<double>(seq_hist.percentile(0.95)) / 1e6
         << ", \"p99\": "
         << static_cast<double>(seq_hist.percentile(0.99)) / 1e6
         << ", \"max\": " << static_cast<double>(seq_hist.max) / 1e6
         << "},\n"
         << "  \"metrics\":\n"
         << obs::to_json(metrics, 2) << "\n"
         << "}\n";
    std::printf("json:       wrote %s\n", json_path.c_str());
  }

  // Optional regression gate, e.g. --min-speedup=3 on a 4-core CI runner.
  const double min_speedup = args.get_double("min-speedup", 0.0);
  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::printf("FAIL: speedup below required %.2fx\n", min_speedup);
    return 1;
  }
  return 0;
}
