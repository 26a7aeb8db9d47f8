// Micro benchmarks for §V-F2 / §V-H1: KRR training and testing cost.
//
// The paper's complexity claim: the dual solve costs O(N^2.373) in the
// training-set size while the primal (identity-kernel) solve costs
// O(M^2.373) in the feature dimension — N=720 vs M=28 makes the primal path
// enormously cheaper. These benchmarks expose both paths, the incremental
// (Woodbury) update, and the SVM baseline's training cost for comparison
// (the paper picks KRR over SVM partly on cost).
//
// --backend=scalar|avx2|avx512|auto selects the num:: dispatch path
// (default: the process default, i.e. SY_NUM_BACKEND or the detected best).
// The active backend is recorded in the benchmark context ("sy_num_backend"
// in the JSON output), so the perf trajectory records which path ran.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/approx_training.h"
#include "core/auth_server.h"
#include "ml/dataset.h"
#include "ml/kernel.h"
#include "ml/krr.h"
#include "ml/krr_approx.h"
#include "ml/linalg.h"
#include "ml/svm.h"
#include "num/backend.h"
#include "util/rng.h"
#include "util/thread_pool.h"

using namespace sy;

namespace {

// Set by --threads=N before benchmark::Initialize; BM_BlockedCholesky runs
// its trailing updates on this pool (null = serial schedule).
util::ThreadPool* g_cholesky_pool = nullptr;

// Set by --mode=nystrom|rff: the approximate path the BM_Approx* benchmarks
// exercise. Recorded as "sy_training_mode" in the JSON context so
// bench_compare.py refuses to diff artifacts from different modes.
ml::TrainingMode g_mode = ml::TrainingMode::kRff;

// Population sizes of the scaling curve (BM_ApproxTrainUser): per-user
// training time should stay flat from min to max while exact training over
// the same population (BM_ExactTrainFullPop) grows superlinearly.
constexpr std::size_t kScalingPopMin = 2048;
constexpr std::size_t kScalingPopMax = 1048576;

ml::Dataset blobs(std::size_t n_per_class, std::size_t dim, std::uint64_t seed) {
  util::Rng rng(seed);
  ml::Dataset data;
  std::vector<double> x(dim);
  for (std::size_t i = 0; i < n_per_class; ++i) {
    for (auto& v : x) v = rng.gaussian(1.0, 1.0);
    data.add(x, +1);
    for (auto& v : x) v = rng.gaussian(-1.0, 1.0);
    data.add(x, -1);
  }
  return data;
}

// Dual path (Eq. 6): cost grows superlinearly with N.
void BM_KrrTrainDual(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ml::Dataset data = blobs(n / 2, 28, 7);
  ml::KrrConfig config;  // RBF -> dual
  for (auto _ : state) {
    ml::KrrClassifier krr(config);
    krr.fit(data.x, data.y);
    benchmark::DoNotOptimize(krr);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KrrTrainDual)->Arg(100)->Arg(200)->Arg(400)->Arg(800)
    ->Complexity();

// Primal path (Eq. 7): cost depends on M, not N — the paper's reduction.
void BM_KrrTrainPrimal(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ml::Dataset data = blobs(n / 2, 28, 7);
  ml::KrrConfig config;
  config.kernel = ml::Kernel::linear();
  config.path = ml::KrrSolvePath::kPrimal;
  for (auto _ : state) {
    ml::KrrClassifier krr(config);
    krr.fit(data.x, data.y);
    benchmark::DoNotOptimize(krr);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KrrTrainPrimal)->Arg(100)->Arg(200)->Arg(400)->Arg(800)
    ->Complexity();

// Primal cost vs feature dimension M.
void BM_KrrTrainPrimalDim(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const ml::Dataset data = blobs(400, m, 9);
  ml::KrrConfig config;
  config.kernel = ml::Kernel::linear();
  config.path = ml::KrrSolvePath::kPrimal;
  for (auto _ : state) {
    ml::KrrClassifier krr(config);
    krr.fit(data.x, data.y);
    benchmark::DoNotOptimize(krr);
  }
}
BENCHMARK(BM_KrrTrainPrimalDim)->Arg(14)->Arg(28)->Arg(56)->Arg(112);

// Per-window authentication decision (the paper reports 18 ms on a phone;
// a laptop should be far under that).
void BM_KrrDecision(benchmark::State& state) {
  const ml::Dataset data = blobs(400, 28, 11);
  ml::KrrClassifier krr{ml::KrrConfig{}};
  krr.fit(data.x, data.y);
  util::Rng rng(13);
  std::vector<double> x(28);
  for (auto& v : x) v = rng.gaussian();
  for (auto _ : state) {
    benchmark::DoNotOptimize(krr.decision(x));
  }
}
BENCHMARK(BM_KrrDecision);

void BM_KrrDecisionPrimal(benchmark::State& state) {
  const ml::Dataset data = blobs(400, 28, 11);
  ml::KrrConfig config;
  config.kernel = ml::Kernel::linear();
  ml::KrrClassifier krr(config);
  krr.fit(data.x, data.y);
  util::Rng rng(13);
  std::vector<double> x(28);
  for (auto& v : x) v = rng.gaussian();
  for (auto _ : state) {
    benchmark::DoNotOptimize(krr.decision(x));
  }
}
BENCHMARK(BM_KrrDecisionPrimal);

// Incremental Woodbury update (the machine-unlearning extension): O(M^2)
// per sample instead of a full O(M^3) refit.
void BM_KrrIncrementalAdd(benchmark::State& state) {
  const ml::Dataset data = blobs(400, 28, 15);
  ml::KrrConfig config;
  config.kernel = ml::Kernel::linear();
  ml::KrrClassifier krr(config);
  krr.fit(data.x, data.y);
  util::Rng rng(17);
  std::vector<double> x(28);
  for (auto& v : x) v = rng.gaussian();
  for (auto _ : state) {
    krr.add_sample(x, +1);
    krr.remove_sample(x, +1);  // keep the model bounded
  }
}
BENCHMARK(BM_KrrIncrementalAdd);

// SVM training cost at the paper's N=800 — the comparison that motivates
// choosing KRR (§V-F2).
void BM_SvmTrain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ml::Dataset data = blobs(n / 2, 28, 19);
  for (auto _ : state) {
    ml::SvmClassifier svm{ml::SvmConfig{}};
    svm.fit(data.x, data.y);
    benchmark::DoNotOptimize(svm);
  }
}
BENCHMARK(BM_SvmTrain)->Arg(200)->Arg(400)->Arg(800)
    ->Unit(benchmark::kMillisecond);

// --- Dispatched num:: hot kernels (ISSUE 3 acceptance gate) ---------------
// The RBF gram build and the blocked Cholesky are where the dual fit's time
// goes; these isolate them so the scalar-vs-avx2 speedup is directly
// comparable across runs of differing --backend.

void BM_RbfGram(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ml::Dataset data = blobs(n / 2, 28, 21);
  const ml::Kernel kernel = ml::Kernel::rbf();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::gram_matrix(data.x, kernel));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_RbfGram)->Arg(200)->Arg(400)->Arg(800);

// --threads=N tiles the rank-k trailing update over a pool (bitwise
// identical to serial — the flag trades nothing but wall-clock). Pinned to
// the barrier-per-panel kParallelTiles schedule so BM_CholeskyLookahead
// below measures the panel-overlap win against a stable baseline.
void BM_BlockedCholesky(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ml::Dataset data = blobs(n / 2, 28, 23);
  ml::Matrix a = ml::gram_matrix(data.x, ml::Kernel::rbf());
  a.add_diagonal(0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::cholesky(
        a, g_cholesky_pool, num::CholeskySchedule::kParallelTiles));
  }
}
BENCHMARK(BM_BlockedCholesky)->Arg(200)->Arg(400)->Arg(800)->Arg(1600)
    ->Arg(3200)->Unit(benchmark::kMillisecond);

// The look-ahead schedule: panel p+1's serial factor overlaps panel p's
// remaining trailing tiles instead of gating them. Same matrix sizes as
// BM_BlockedCholesky at and above the parallel threshold, so the JSON
// artifacts diff pairwise (CI gates >= 1.2x at n=1600 with >= 4 threads);
// the factor is bitwise identical to both other schedules.
void BM_CholeskyLookahead(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ml::Dataset data = blobs(n / 2, 28, 23);
  ml::Matrix a = ml::gram_matrix(data.x, ml::Kernel::rbf());
  a.add_diagonal(0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::cholesky(
        a, g_cholesky_pool, num::CholeskySchedule::kLookahead));
  }
}
BENCHMARK(BM_CholeskyLookahead)->Arg(800)->Arg(1600)->Arg(3200)
    ->Unit(benchmark::kMillisecond);

// --- Population-growth curve (ISSUE 6 tentpole gate) ----------------------
// The point of the approximate path: per-user training cost is independent
// of how many vectors the population store holds. BM_ApproxTrainUser times
// exactly what a steady-state enrollment pays (shared statistics prewarmed,
// as BatchAuthServer does before fanning out); BM_ApproxSharedStats times
// the amortized per-context build; BM_ExactTrainFullPop is the contrast —
// exact KRR forced to learn from the whole population.

constexpr auto kBenchContext = sensors::DetectedContext::kStationary;
constexpr std::size_t kPopDim = 14;

// A population store holding `population` gaussian vectors in contribution
// blocks of 256 (one contributor per block, like real contribute() traffic).
core::CowPopulationStore population_store(std::size_t population,
                                          std::uint64_t seed) {
  util::Rng rng(seed);
  core::CowPopulationStore store;
  std::vector<std::vector<double>> block;
  int token = 100000;
  for (std::size_t added = 0; added < population;) {
    const std::size_t take = std::min<std::size_t>(256, population - added);
    block.assign(take, std::vector<double>(kPopDim));
    for (auto& v : block) {
      for (auto& x : v) x = rng.gaussian();
    }
    store.contribute(token++, kBenchContext, block);
    added += take;
  }
  return store;
}

core::VectorsByContext bench_positives(std::uint64_t seed) {
  util::Rng rng(seed);
  core::VectorsByContext positives;
  auto& vecs = positives[kBenchContext];
  vecs.assign(10, std::vector<double>(kPopDim));
  for (auto& v : vecs) {
    for (auto& x : v) x = rng.gaussian(0.5, 1.0);
  }
  return positives;
}

// Per-user approximate training at growing population sizes. The shared
// statistics are prewarmed outside the timed region — the curve must be
// flat (CI gates the largest smoke population at <= 2x the smallest).
void BM_ApproxTrainUser(benchmark::State& state) {
  const auto population = static_cast<std::size_t>(state.range(0));
  const core::CowPopulationStore store = population_store(population, 29);
  const auto snapshot = store.snapshot();
  core::TrainingConfig config;
  config.krr.mode = g_mode;
  config.krr.approx_dim = 128;
  const core::VectorsByContext positives = bench_positives(31);
  core::ApproxStatsCache cache;
  (void)cache.get(kBenchContext, snapshot->at(kBenchContext), kPopDim,
                  config.krr);
  for (auto _ : state) {
    util::Rng rng(33);  // unused by the approximate path; kept for parity
    benchmark::DoNotOptimize(core::train_user_from_store(
        *snapshot, config, /*user_token=*/1, positives, rng, 1, &cache));
  }
  state.SetComplexityN(static_cast<std::int64_t>(population));
}
BENCHMARK(BM_ApproxTrainUser)
    ->Arg(2048)->Arg(8192)->Arg(32768)->Arg(131072)->Arg(1048576)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oN);

// The shared per-context statistics build (amortized across every user in a
// batch, and across batches until the bucket crosses a size doubling).
void BM_ApproxSharedStats(benchmark::State& state) {
  const auto population = static_cast<std::size_t>(state.range(0));
  const core::CowPopulationStore store = population_store(population, 35);
  const auto snapshot = store.snapshot();
  ml::KrrConfig config;
  config.mode = g_mode;
  config.approx_dim = 128;
  const auto& bucket = snapshot->at(kBenchContext);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::build_approx_context_stats(bucket, kPopDim, config));
  }
  state.SetComplexityN(static_cast<std::int64_t>(population));
}
BENCHMARK(BM_ApproxSharedStats)
    ->Arg(2048)->Arg(8192)->Arg(32768)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oN);

// Exact KRR made to learn from the whole population (negative_ratio scaled
// so the impostor draw covers it): the dual solve's superlinear growth is
// what the approximate path removes.
void BM_ExactTrainFullPop(benchmark::State& state) {
  const auto population = static_cast<std::size_t>(state.range(0));
  const core::CowPopulationStore store = population_store(population, 37);
  const auto snapshot = store.snapshot();
  core::TrainingConfig config;  // mode = kExact
  const core::VectorsByContext positives = bench_positives(31);
  config.negative_ratio =
      static_cast<double>(population) /
      static_cast<double>(positives.at(kBenchContext).size());
  for (auto _ : state) {
    util::Rng rng(39);
    benchmark::DoNotOptimize(core::train_user_from_store(
        *snapshot, config, /*user_token=*/1, positives, rng, 1));
  }
  state.SetComplexityN(static_cast<std::int64_t>(population));
}
BENCHMARK(BM_ExactTrainFullPop)
    ->Arg(256)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond)->Complexity();

// Batched dual scoring — the serving gateway's per-request hot path.
void BM_KrrDecisionBatch(benchmark::State& state) {
  const ml::Dataset train = blobs(400, 28, 25);
  ml::KrrClassifier krr{ml::KrrConfig{}};
  krr.fit(train.x, train.y);
  const ml::Dataset probe = blobs(128, 28, 27);
  for (auto _ : state) {
    benchmark::DoNotOptimize(krr.decision_batch(probe.x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(probe.x.rows()));
}
BENCHMARK(BM_KrrDecisionBatch);

// One 28-dim window against the same N=800 model — the on-phone shape, so
// its per-window time reads directly against BM_KrrDecisionBatch's.
void BM_KrrDecisionSingle(benchmark::State& state) {
  const ml::Dataset train = blobs(400, 28, 25);
  ml::KrrClassifier krr{ml::KrrConfig{}};
  krr.fit(train.x, train.y);
  const ml::Dataset probe = blobs(1, 28, 27);
  for (auto _ : state) {
    benchmark::DoNotOptimize(krr.decision(probe.x.row(0)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KrrDecisionSingle);

}  // namespace

int main(int argc, char** argv) {
  // Peel off --backend=.../--threads=... before benchmark::Initialize (it
  // rejects flags it does not own). SY_NUM_BACKEND has already been applied
  // by num::backend.
  std::vector<char*> args;
  std::string backend;
  std::string mode;
  unsigned threads = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--backend=", 10) == 0) {
      backend = argv[i] + 10;
      continue;
    }
    if (std::strncmp(argv[i], "--mode=", 7) == 0) {
      mode = argv[i] + 7;
      continue;
    }
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      // Negative values mean "no pool" (0), not a wrapped-around unsigned.
      threads = static_cast<unsigned>(std::max(0, std::atoi(argv[i] + 10)));
      continue;
    }
    args.push_back(argv[i]);
  }
  if (!mode.empty()) {
    const auto parsed = ml::parse_training_mode(mode);
    if (!parsed || *parsed == ml::TrainingMode::kExact) {
      std::fprintf(stderr,
                   "bench_micro_krr: --mode must be nystrom or rff, got %s\n",
                   mode.c_str());
      return 1;
    }
    g_mode = *parsed;
  }
  if (!backend.empty()) {
    const auto parsed = num::parse_backend(backend);
    if (!parsed) {
      std::fprintf(stderr, "bench_micro_krr: unknown --backend=%s\n",
                   backend.c_str());
      return 1;
    }
    try {
      num::set_backend(*parsed);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_micro_krr: %s\n", e.what());
      return 1;
    }
  }
  benchmark::AddCustomContext(
      "sy_num_backend", std::string(num::backend_name(num::active_backend())));
  benchmark::AddCustomContext("sy_training_mode", ml::to_string(g_mode));
  benchmark::AddCustomContext("sy_scaling_pop_min",
                              std::to_string(kScalingPopMin));
  benchmark::AddCustomContext("sy_scaling_pop_max",
                              std::to_string(kScalingPopMax));
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) {
    pool = std::make_unique<util::ThreadPool>(threads);
    g_cholesky_pool = pool.get();
  }
  benchmark::AddCustomContext("sy_cholesky_threads",
                              std::to_string(threads));

  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
