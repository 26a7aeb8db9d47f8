// Micro benchmarks for §V-H: the on-phone pipeline cost.
//
// The paper reports < 21 ms end-to-end (context detection + authentication)
// per 6 s window, 0.065 s training, ~3 MB memory. These benchmarks measure
// feature extraction (per window, per stream, per 60 s session) and the
// stream's transform alone, context detection, the decision, and one raw
// window end to end, and print a memory budget for the resident model state.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "context/context_detector.h"
#include "core/auth_model.h"
#include "core/model_store.h"
#include "features/feature_extractor.h"
#include "ml/dataset.h"
#include "sensors/device.h"
#include "sensors/population.h"
#include "signal/dft.h"

using namespace sy;

namespace {

struct PipelineFixture {
  sensors::Population pop = sensors::Population::generate(4, 51);
  features::FeatureExtractor extractor{features::FeatureConfig{}};
  sensors::CollectedSession session;  // 60 s, ten windows
  sensors::CollectedSession window;   // one raw 6 s window
  context::ContextDetector detector;
  core::AuthModel model;
  std::vector<double> window28;

  PipelineFixture() {
    util::Rng rng(52);
    sensors::CollectorOptions collect;
    collect.with_watch = true;
    collect.bluetooth = false;
    collect.synthesis.duration_seconds = 60.0;
    session = sensors::collect_session(
        pop.user(0), sensors::UsageContext::kMoving, collect, rng);
    sensors::CollectorOptions one_window = collect;
    one_window.synthesis.duration_seconds =
        extractor.config().window.window_seconds;
    window = sensors::collect_session(
        pop.user(0), sensors::UsageContext::kMoving, one_window, rng);

    // Context detector from the other users.
    std::vector<std::vector<double>> ctx_x;
    std::vector<sensors::UsageContext> ctx_y;
    for (std::size_t u = 1; u < pop.size(); ++u) {
      for (const auto context : {sensors::UsageContext::kStationaryUse,
                                 sensors::UsageContext::kMoving}) {
        const auto s =
            sensors::collect_session(pop.user(u), context, collect, rng);
        for (auto& v : extractor.context_vectors(s.phone)) {
          ctx_x.push_back(std::move(v));
          ctx_y.push_back(context);
        }
      }
    }
    detector.train(ctx_x, ctx_y);

    // One per-context KRR model at the paper's N=800.
    ml::Dataset train;
    std::vector<double> x(28);
    for (int i = 0; i < 400; ++i) {
      for (auto& v : x) v = rng.gaussian(1.0, 1.0);
      train.add(x, +1);
      for (auto& v : x) v = rng.gaussian(-1.0, 1.0);
      train.add(x, -1);
    }
    ml::StandardScaler scaler;
    scaler.fit(train.x);
    ml::KrrClassifier krr{ml::KrrConfig{}};
    const auto scaled = scaler.transform(train);
    krr.fit(scaled.x, scaled.y);
    model = core::AuthModel(0, 1);
    model.set_context_model(sensors::DetectedContext::kMoving,
                            core::ContextModel(scaler, krr));
    model.set_context_model(sensors::DetectedContext::kStationary,
                            core::ContextModel(scaler, std::move(krr)));

    const auto vectors = extractor.auth_vectors(window.phone, &*window.watch);
    if (vectors.size() != 1) {
      std::fprintf(stderr, "expected one window, got %zu\n", vectors.size());
      std::exit(1);
    }
    window28 = vectors[0];
  }
};

PipelineFixture& fixture() {
  static PipelineFixture f;
  return f;
}

// Feature extraction for one raw 6 s window: four streams (phone and watch,
// accel and gyro) into one 28-dim vector (Eq. 4).
void BM_FeatureExtractionWindow(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.extractor.auth_vectors(f.window.phone, &*f.window.watch));
  }
}
BENCHMARK(BM_FeatureExtractionWindow)->Unit(benchmark::kMicrosecond);

// window_features on one 300-sample magnitude stream (phone accel): the
// time-domain passes, the padded 512-point transform and the peak search.
void BM_WindowFeaturesOneStream(benchmark::State& state) {
  auto& f = fixture();
  const auto stream = f.window.phone.accel.magnitude();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.extractor.window_features(stream));
  }
}
BENCHMARK(BM_WindowFeaturesOneStream)->Unit(benchmark::kMicrosecond);

// One 512-point RealFft plan applied to one zero-padded, DC-removed window.
void BM_RealFftMagnitude512(benchmark::State& state) {
  auto& f = fixture();
  const auto stream = f.window.phone.accel.magnitude();
  const signal::RealFft fft(512);
  std::vector<double> padded(fft.size(), 0.0);
  const double mean = f.extractor.window_features(stream).mean;
  for (std::size_t i = 0; i < stream.size(); ++i) padded[i] = stream[i] - mean;
  std::vector<double> mag(fft.bins());
  for (auto _ : state) {
    fft.magnitude(padded, mag);
    benchmark::DoNotOptimize(mag.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RealFftMagnitude512)->Unit(benchmark::kMicrosecond);

// Feature extraction for a whole 60 s session (ten 6 s windows).
void BM_FeatureExtractionSession60s(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.extractor.auth_vectors(f.session.phone, &*f.session.watch));
  }
}
BENCHMARK(BM_FeatureExtractionSession60s)->Unit(benchmark::kMicrosecond);

// Context detection per window (paper: < 3 ms).
void BM_ContextDetection(benchmark::State& state) {
  auto& f = fixture();
  const std::span<const double> phone(f.window28.data(), 14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.detector.detect(phone));
  }
}
BENCHMARK(BM_ContextDetection)->Unit(benchmark::kMicrosecond);

// Authentication decision per window at N=800 (paper: 18 ms).
void BM_AuthDecision(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.model.score(sensors::DetectedContext::kMoving, f.window28));
  }
}
BENCHMARK(BM_AuthDecision)->Unit(benchmark::kMicrosecond);

// End-to-end from one raw 6 s window: feature extraction, context
// detection, model selection and decision (paper: < 21 ms).
void BM_EndToEndWindow(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    const auto vectors =
        f.extractor.auth_vectors(f.window.phone, &*f.window.watch);
    const auto context = f.detector.detect(
        std::span<const double>(vectors[0].data(), 14));
    benchmark::DoNotOptimize(f.model.score(context, vectors[0]));
  }
}
BENCHMARK(BM_EndToEndWindow)->Unit(benchmark::kMicrosecond);

// Signal synthesis throughput (substrate cost, not a paper number).
void BM_SynthesizeOneMinuteSession(benchmark::State& state) {
  auto& f = fixture();
  util::Rng rng(99);
  sensors::CollectorOptions collect;
  collect.with_watch = true;
  collect.bluetooth = true;
  collect.synthesis.duration_seconds = 60.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sensors::collect_session(
        f.pop.user(0), sensors::UsageContext::kMoving, collect, rng));
  }
}
BENCHMARK(BM_SynthesizeOneMinuteSession)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Memory budget of the resident state (paper §V-H2 reports ~3 MB).
  {
    auto& f = fixture();
    const auto bytes = core::ModelStore::serialize(f.model);
    const std::size_t buffer_bytes =
        300 /*samples*/ * 4 /*streams*/ * 3 /*axes*/ * sizeof(double);
    std::printf(
        "Resident memory budget: model bundle %.1f KB + 6 s raw buffer "
        "%.1f KB (paper ~3 MB including runtime)\n\n",
        static_cast<double>(bytes.size()) / 1024.0,
        static_cast<double>(buffer_bytes) / 1024.0);
  }
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
