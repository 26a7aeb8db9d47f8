// Resilience primitives (serve/resilience.h) on simulated time, the chaos
// fault-plan grammar and ChaosVolume (serve/volume.h), the bounded RetrainQueue
// shed policy, ModelCache eviction pausing, and the gateway's end-to-end
// degrade-and-replay path. Every clock and sleep is injected — no test here
// waits out a real cooldown.
//
// This suite also runs under TSan in CI (the `serve_` regex): the
// *UnderConcurrency tests hammer the breaker and admission gate from many
// threads to surface lock-ordering and data races.
#include "serve/resilience.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "serve/auth_gateway.h"
#include "serve/model_cache.h"
#include "serve/retrain_queue.h"
#include "serve/volume.h"
#include "util/rng.h"
#include "util/sim_clock.h"

namespace sy::serve {
namespace {

constexpr auto kStationary = sensors::DetectedContext::kStationary;
constexpr auto kMoving = sensors::DetectedContext::kMoving;

ClockFn sim_clock_fn(util::SimClock& clock) {
  return [&clock] { return clock.now_ns(); };
}

// --- IoError ---------------------------------------------------------------

TEST(IoError, ClassifiesTransienceByErrno) {
  for (const int e : {EIO, ENOSPC, EAGAIN, EINTR, EBUSY, ETIMEDOUT}) {
    EXPECT_TRUE(IoError("append", "/x", e).transient()) << e;
  }
  for (const int e : {EACCES, EROFS, EBADF, ENOENT, EINVAL}) {
    EXPECT_FALSE(IoError("append", "/x", e).transient()) << e;
  }
}

TEST(IoError, MessageCarriesOpPathAndErrno) {
  const IoError err("fsync", "/data/shard_3.log", ENOSPC);
  EXPECT_EQ(err.op(), "fsync");
  EXPECT_EQ(err.path(), "/data/shard_3.log");
  EXPECT_EQ(err.error_number(), ENOSPC);
  const std::string what = err.what();
  EXPECT_NE(what.find("fsync"), std::string::npos);
  EXPECT_NE(what.find("/data/shard_3.log"), std::string::npos);
}

// --- Backoff ---------------------------------------------------------------

TEST(Backoff, ExponentialGrowthCappedAtMaxDelay) {
  BackoffPolicy policy;
  policy.base_delay_ns = 1'000'000;
  policy.max_delay_ns = 4'000'000;
  policy.multiplier = 2.0;
  policy.jitter = 0.0;  // exact nominal schedule
  util::Rng rng(7);
  EXPECT_EQ(backoff_delay_ns(policy, 0, rng), 1'000'000u);
  EXPECT_EQ(backoff_delay_ns(policy, 1, rng), 2'000'000u);
  EXPECT_EQ(backoff_delay_ns(policy, 2, rng), 4'000'000u);
  EXPECT_EQ(backoff_delay_ns(policy, 3, rng), 4'000'000u);  // capped
}

TEST(Backoff, JitterStaysInsideItsFractionAndIsSeedDeterministic) {
  BackoffPolicy policy;
  policy.base_delay_ns = 10'000'000;
  policy.jitter = 0.5;
  std::vector<std::uint64_t> first;
  for (int trial = 0; trial < 2; ++trial) {
    util::Rng rng(42);
    for (std::size_t attempt = 0; attempt < 8; ++attempt) {
      const auto delay = backoff_delay_ns(policy, attempt, rng);
      const auto nominal = std::min<std::uint64_t>(
          policy.max_delay_ns,
          static_cast<std::uint64_t>(
              static_cast<double>(policy.base_delay_ns) *
              std::pow(policy.multiplier, static_cast<double>(attempt))));
      EXPECT_GT(delay, nominal / 2) << "attempt " << attempt;
      EXPECT_LE(delay, nominal) << "attempt " << attempt;
      if (trial == 0) {
        first.push_back(delay);
      } else {
        EXPECT_EQ(delay, first[attempt]) << "same seed, same schedule";
      }
    }
  }
}

TEST(RetryIo, RetriesTransientFailuresThenSucceeds) {
  BackoffPolicy policy;
  policy.max_attempts = 3;
  util::Rng rng(1);
  std::size_t calls = 0;
  std::vector<std::uint64_t> sleeps;
  retry_io(
      [&calls] {
        if (++calls < 3) throw IoError("append", "/x", EIO);
      },
      policy, rng, [&sleeps](std::uint64_t ns) { sleeps.push_back(ns); });
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(sleeps.size(), 2u);  // one backoff per retry, none after success
}

TEST(RetryIo, FatalErrorsPropagateWithoutRetry) {
  BackoffPolicy policy;
  policy.max_attempts = 5;
  util::Rng rng(1);
  std::size_t calls = 0;
  std::size_t sleeps = 0;
  EXPECT_THROW(
      retry_io([&calls] { ++calls; throw IoError("open", "/x", EACCES); },
               policy, rng, [&sleeps](std::uint64_t) { ++sleeps; }),
      IoError);
  EXPECT_EQ(calls, 1u);  // a permissions error never deserves a retry
  EXPECT_EQ(sleeps, 0u);
}

TEST(RetryIo, ExhaustionRethrowsTheLastTransientFailure) {
  BackoffPolicy policy;
  policy.max_attempts = 3;
  util::Rng rng(1);
  std::size_t calls = 0;
  try {
    retry_io([&calls] { ++calls; throw IoError("append", "/x", ENOSPC); },
             policy, rng, [](std::uint64_t) {});
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.error_number(), ENOSPC);
  }
  EXPECT_EQ(calls, 3u);
}

// --- CircuitBreaker --------------------------------------------------------

TEST(CircuitBreaker, WalksClosedOpenHalfOpenClosed) {
  util::SimClock clock;
  BreakerConfig config;
  config.failure_threshold = 2;
  config.cooldown_ns = 1'000'000;
  CircuitBreaker breaker(config, sim_clock_fn(clock));
  std::vector<std::pair<CircuitBreaker::State, CircuitBreaker::State>> hops;
  breaker.set_transition_hook(
      [&hops](CircuitBreaker::State from, CircuitBreaker::State to) {
        hops.emplace_back(from, to);
      });

  EXPECT_TRUE(breaker.allow());
  breaker.on_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);  // 1 < threshold
  breaker.on_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allow());

  clock.advance_ns(999'999);
  EXPECT_FALSE(breaker.allow()) << "cooldown not elapsed yet";
  clock.advance_ns(2);
  EXPECT_TRUE(breaker.allow()) << "the half-open probe";
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.allow()) << "only ONE probe may be in flight";

  breaker.on_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow());
  EXPECT_EQ(breaker.opens(), 1u);

  ASSERT_EQ(hops.size(), 3u);
  EXPECT_EQ(hops[0].second, CircuitBreaker::State::kOpen);
  EXPECT_EQ(hops[1].second, CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(hops[2].second, CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, FailedProbeReopensWithAFreshCooldown) {
  util::SimClock clock;
  BreakerConfig config;
  config.failure_threshold = 1;
  config.cooldown_ns = 1'000;
  CircuitBreaker breaker(config, sim_clock_fn(clock));

  breaker.on_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  clock.advance_ns(1'001);
  EXPECT_TRUE(breaker.allow());
  breaker.on_failure();  // the probe itself fails
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allow()) << "re-opened: cooldown restarts";
  EXPECT_EQ(breaker.opens(), 2u);
  clock.advance_ns(1'001);
  EXPECT_TRUE(breaker.allow());
  breaker.on_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, DegradedTimeAccumulatesOnlyWhileNonClosed) {
  util::SimClock clock;
  BreakerConfig config;
  config.failure_threshold = 1;
  config.cooldown_ns = 100;
  CircuitBreaker breaker(config, sim_clock_fn(clock));

  clock.advance_ns(5'000);  // healthy time does not count
  EXPECT_EQ(breaker.degraded_ns(), 0u);
  breaker.on_failure();
  clock.advance_ns(300);
  EXPECT_EQ(breaker.degraded_ns(), 300u);  // live episode included
  EXPECT_TRUE(breaker.allow());
  clock.advance_ns(50);  // half-open is still degraded
  breaker.on_success();
  EXPECT_EQ(breaker.degraded_ns(), 350u);
  clock.advance_ns(10'000);
  EXPECT_EQ(breaker.degraded_ns(), 350u) << "closed time never accrues";
}

TEST(CircuitBreaker, SuccessResetsTheConsecutiveFailureRun) {
  util::SimClock clock;
  BreakerConfig config;
  config.failure_threshold = 3;
  CircuitBreaker breaker(config, sim_clock_fn(clock));
  breaker.on_failure();
  breaker.on_failure();
  breaker.on_success();  // run broken: the count starts over
  breaker.on_failure();
  breaker.on_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.on_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
}

TEST(CircuitBreaker, StateMachineSurvivesConcurrentCallers) {
  // TSan target: allow/on_failure/on_success/state from many threads, plus
  // transition hooks firing outside the mutex.
  util::SimClock clock;  // advanced only before the threads start
  clock.advance_ns(1);
  BreakerConfig config;
  config.failure_threshold = 2;
  config.cooldown_ns = 0;  // every allow() after open is a probe candidate
  CircuitBreaker breaker(config, sim_clock_fn(clock));
  std::atomic<std::uint64_t> transitions{0};
  breaker.set_transition_hook(
      [&transitions](CircuitBreaker::State, CircuitBreaker::State) {
        transitions.fetch_add(1, std::memory_order_relaxed);
      });

  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&breaker, t] {
      for (int i = 0; i < 500; ++i) {
        if (breaker.allow()) {
          if ((t + i) % 3 == 0) {
            breaker.on_failure();
          } else {
            breaker.on_success();
          }
        }
        (void)breaker.state();
        (void)breaker.degraded_ns();
      }
    });
  }
  for (auto& w : workers) w.join();
  // Terminal state must be a legal one and the counters coherent.
  EXPECT_LE(breaker.opens(), transitions.load());
}

// --- AdmissionGate ---------------------------------------------------------

TEST(AdmissionGate, ShedsAtSaturationAndFreesOnTicketRelease) {
  util::SimClock clock;
  AdmissionConfig config;
  config.max_concurrent = 2;
  AdmissionGate gate(config, sim_clock_fn(clock));

  auto a = gate.admit();
  auto b = gate.admit();
  EXPECT_EQ(gate.inflight(), 2u);
  try {
    gate.admit();
    FAIL() << "third admit must shed";
  } catch (const OverloadError& e) {
    EXPECT_EQ(e.reason(), OverloadReason::kSaturated);
  }
  EXPECT_EQ(gate.shed_saturated(), 1u);
  { AdmissionGate::Ticket dropped = std::move(a); }  // release one slot
  EXPECT_EQ(gate.inflight(), 1u);
  EXPECT_NO_THROW(gate.admit());
  EXPECT_EQ(gate.admitted(), 3u);  // a, b, and the post-release admit
}

TEST(AdmissionGate, ShedsExpiredAndUnmeetableDeadlines) {
  util::SimClock clock;
  clock.advance_ns(1'000'000);
  AdmissionGate gate({}, sim_clock_fn(clock));

  // An already-expired budget sheds before any work happens.
  try {
    gate.admit(clock.now_ns() - 1);
    FAIL() << "expired deadline must shed";
  } catch (const OverloadError& e) {
    EXPECT_EQ(e.reason(), OverloadReason::kDeadline);
  }
  EXPECT_EQ(gate.shed_deadline(), 1u);

  // Teach the gate its service time: one request that took 10 ms.
  {
    auto ticket = gate.admit();
    clock.advance_ns(10'000'000);
  }
  const auto estimate = gate.estimated_service_ns();
  EXPECT_GT(estimate, 0u);
  // A budget smaller than the estimate is unmeetable; a roomy one admits.
  EXPECT_THROW(gate.admit(clock.now_ns() + estimate / 2), OverloadError);
  EXPECT_NO_THROW(gate.admit(clock.now_ns() + 10 * estimate));
}

TEST(AdmissionGate, InflightStaysCoherentUnderConcurrency) {
  // TSan target: concurrent admit/release against the slot bound.
  AdmissionConfig config;
  config.max_concurrent = 3;
  AdmissionGate gate(config);
  std::atomic<std::uint64_t> shed{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 6; ++t) {
    workers.emplace_back([&gate, &shed] {
      for (int i = 0; i < 400; ++i) {
        try {
          auto ticket = gate.admit();
          std::this_thread::yield();
        } catch (const OverloadError&) {
          shed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(gate.inflight(), 0u);
  EXPECT_EQ(gate.admitted() + shed.load(), 6u * 400u);
}

// --- Fault-plan grammar and chaos sink -------------------------------------

TEST(FaultPlan, ParsesTheLiveGrammar) {
  const auto unbounded = parse_fault_plan("error");
  EXPECT_EQ(unbounded.kind, FaultPlan::Kind::kErrorOps);
  EXPECT_EQ(unbounded.at, 0u);
  EXPECT_EQ(unbounded.count, 0u);  // until disarmed

  const auto windowed = parse_fault_plan("error@5+3");
  EXPECT_EQ(windowed.kind, FaultPlan::Kind::kErrorOps);
  EXPECT_EQ(windowed.at, 5u);
  EXPECT_EQ(windowed.count, 3u);

  const auto slow = parse_fault_plan("slow@2:250");
  EXPECT_EQ(slow.kind, FaultPlan::Kind::kSlowOps);
  EXPECT_EQ(slow.at, 2u);
  EXPECT_EQ(slow.delay_ns, 250'000u);  // spec is in microseconds

  const auto dropsync = parse_fault_plan("dropsync@1+1");
  EXPECT_EQ(dropsync.kind, FaultPlan::Kind::kDropSyncOps);
  EXPECT_EQ(dropsync.at, 1u);
  EXPECT_EQ(dropsync.count, 1u);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  for (const char* bad :
       {"", "bogus", "slow", "slow@2", "error@x", "error@1+z", "slow:abc",
        "error extra", "slow:-5", "error@-1", "error@5x", "error@1+2+3",
        "slow@2:250us", "error@ 3", "slow:18446744073709552"}) {
    EXPECT_THROW(parse_fault_plan(bad), std::invalid_argument) << bad;
  }
}

// Inner volume recording what actually got through the chaos layer.
struct RecordingVolume final : Volume {
  std::size_t appends{0};
  std::size_t syncs{0};
  std::size_t publishes{0};

  struct Sink final : LogSink {
    explicit Sink(RecordingVolume& v) : volume(v) {}
    void append(const std::uint8_t*, std::size_t) override {
      ++volume.appends;
    }
    void sync() override { ++volume.syncs; }
    void reset() override {}
    RecordingVolume& volume;
  };
  std::unique_ptr<LogSink> open_log(const std::string&) override {
    return std::make_unique<Sink>(*this);
  }
  void publish(const std::string&, const std::vector<std::uint8_t>&,
               Durability) override {
    ++publishes;
  }
};

TEST(ChaosVolume, InjectsErrorsOnlyInsideTheArmedWindow) {
  auto chaos = std::make_shared<ChaosController>();
  auto recorder = std::make_shared<RecordingVolume>();
  ChaosVolume volume(recorder, chaos);
  const auto sink = volume.open_log("/virtual/shard_0.log");
  const std::vector<std::uint8_t> bytes{1, 2, 3};
  const auto publish = [&] {
    volume.publish("/virtual/shard_0.snap", bytes,
                   Volume::Durability::kDurable);
  };

  const std::uint8_t byte = 0x5a;
  sink->append(&byte, 1);  // unarmed: passes through
  chaos->arm(parse_fault_plan("error@1+3"));
  sink->append(&byte, 1);  // op 0 since arming: before the window
  EXPECT_THROW(sink->append(&byte, 1), IoError);  // op 1: in window
  EXPECT_THROW(sink->sync(), IoError);            // op 2: in window
  EXPECT_THROW(publish(), IoError);               // op 3: in window
  sink->append(&byte, 1);                         // op 4: window exhausted
  publish();
  chaos->disarm();
  sink->append(&byte, 1);
  EXPECT_EQ(recorder->appends, 4u);
  EXPECT_EQ(recorder->syncs, 0u);
  EXPECT_EQ(recorder->publishes, 1u);
  const auto stats = chaos->stats();
  EXPECT_EQ(stats.injected_errors, 3u);
  EXPECT_EQ(stats.ops, 8u);
}

TEST(ChaosVolume, DropSyncSwallowsTheFsyncSilently) {
  auto chaos = std::make_shared<ChaosController>();
  auto recorder = std::make_shared<RecordingVolume>();
  ChaosVolume volume(recorder, chaos);
  const auto sink = volume.open_log("/virtual/shard_0.log");
  chaos->arm(parse_fault_plan("dropsync"));
  const std::uint8_t byte = 1;
  sink->append(&byte, 1);  // appends pass under a dropsync plan
  sink->sync();            // silently dropped — no error, no inner fsync
  volume.publish("/virtual/user_1.symd", {byte},
                 Volume::Durability::kAtomic);  // publishes pass too
  EXPECT_EQ(recorder->appends, 1u);
  EXPECT_EQ(recorder->syncs, 0u);
  EXPECT_EQ(recorder->publishes, 1u);
  EXPECT_EQ(chaos->stats().dropped_syncs, 1u);
}

TEST(ChaosVolume, SlowPlanStallsThroughTheInjectedSleep) {
  auto chaos = std::make_shared<ChaosController>();
  auto recorder = std::make_shared<RecordingVolume>();
  std::vector<std::uint64_t> stalls;
  ChaosVolume volume(recorder, chaos,
                     [&stalls](std::uint64_t ns) { stalls.push_back(ns); });
  const auto sink = volume.open_log("/virtual/shard_0.log");
  chaos->arm(parse_fault_plan("slow:125"));
  const std::uint8_t byte = 1;
  sink->append(&byte, 1);
  ASSERT_EQ(stalls.size(), 1u);
  EXPECT_EQ(stalls[0], 125'000u);  // 125 us
  EXPECT_EQ(recorder->appends, 1u) << "slow ops still complete";
}

TEST(ChaosVolume, SlowPlanStallsPublishesToo) {
  auto chaos = std::make_shared<ChaosController>();
  auto recorder = std::make_shared<RecordingVolume>();
  std::vector<std::uint64_t> stalls;
  ChaosVolume volume(recorder, chaos,
                     [&stalls](std::uint64_t ns) { stalls.push_back(ns); });
  chaos->arm(parse_fault_plan("slow@1+1:250"));
  const std::vector<std::uint8_t> bytes{7};
  volume.publish("/virtual/shard_0.snap", bytes,
                 Volume::Durability::kDurable);  // op 0: before the window
  EXPECT_TRUE(stalls.empty());
  volume.publish("/virtual/user_1.symd", bytes,
                 Volume::Durability::kAtomic);  // op 1: stalls
  ASSERT_EQ(stalls.size(), 1u);
  EXPECT_EQ(stalls[0], 250'000u);
  EXPECT_EQ(chaos->stats().injected_delays, stalls.size())
      << "every counted delay is a real stall";
  EXPECT_EQ(recorder->publishes, 2u) << "slow publishes still complete";
}

// --- Bounded RetrainQueue --------------------------------------------------

std::vector<std::vector<double>> train_vectors(int user, std::size_t n,
                                               std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x(6);
    for (auto& v : x) v = rng.gaussian(3.0 * user, 1.0);
    out.push_back(std::move(x));
  }
  return out;
}

struct QueueFixture {
  ShardedPopulationStore store{4};
  QueueFixture() {
    for (int u = 0; u < 5; ++u) {
      store.contribute(u, kStationary, train_vectors(u, 30, 50 + u));
      store.contribute(u, kMoving, train_vectors(u, 30, 150 + u));
    }
  }
  RetrainQueue::Request request(int user, std::uint64_t seed) {
    RetrainQueue::Request r;
    r.user_token = user;
    r.positives[kStationary] = train_vectors(user, 25, seed);
    r.rng_seed = seed;
    r.version = 2;
    return r;
  }
};

TEST(RetrainQueue, BoundedQueueShedsTheOldestCoalescableJob) {
  QueueFixture f;
  util::ThreadPool pool(1);
  // Hold the single worker hostage so submitted jobs stay queued.
  std::promise<void> go;
  std::shared_future<void> gate = go.get_future().share();
  std::atomic<bool> blocked{false};
  pool.submit([gate, &blocked] {
    blocked.store(true);
    gate.wait();
  });
  while (!blocked.load()) std::this_thread::yield();

  RetrainQueue queue(&f.store, {}, nullptr, &pool, nullptr, nullptr,
                     /*max_pending=*/2);
  auto oldest = queue.submit(f.request(0, 900));
  auto second = queue.submit(f.request(1, 901));
  // Cap reached: the next distinct user displaces the OLDEST queued job.
  auto third = queue.submit(f.request(2, 902));
  EXPECT_THROW(oldest.get(), OverloadError) << "victim future fails typed";
  go.set_value();
  EXPECT_EQ(second.get().user_id(), 1);
  EXPECT_EQ(third.get().user_id(), 2);
  queue.wait_idle();
  const auto stats = queue.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.queue_depth_hwm, 2u);
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST(RetrainQueue, SubmitterIsRejectedWhenNothingIsCoalescable) {
  QueueFixture f;
  util::ThreadPool pool(1);
  RetrainQueue queue(
      &f.store, {},
      // The swap hook blocks the running job PAST its coalescing window
      // (it left queued_ before training), so pending_ is pinned at the cap
      // with nothing left to shed.
      [](int, const core::AuthModel&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(80));
      },
      &pool, nullptr, nullptr, /*max_pending=*/1);
  auto running = queue.submit(f.request(0, 910));
  // Wait until the job has actually started (left the coalescable set).
  while (queue.stats().in_flight == 1) {
    if (running.wait_for(std::chrono::milliseconds(0)) ==
        std::future_status::ready) {
      break;
    }
    const auto s = queue.stats();
    if (s.completed + s.failed + s.shed > 0) break;
    std::this_thread::yield();
    // A queued job for user 0 would coalesce; a DIFFERENT user must not.
    try {
      (void)queue.submit(f.request(1, 911));
      // Accepted: the first job finished already — nothing left to prove.
      break;
    } catch (const OverloadError& e) {
      EXPECT_EQ(e.reason(), OverloadReason::kSaturated);
      break;
    }
  }
  queue.wait_idle();
  EXPECT_EQ(queue.submit(f.request(1, 912)).get().user_id(), 1);
  queue.wait_idle();
}

TEST(RetrainQueue, CoalescingStillWinsOverShedding) {
  QueueFixture f;
  util::ThreadPool pool(1);
  std::promise<void> go;
  std::shared_future<void> gate = go.get_future().share();
  std::atomic<bool> blocked{false};
  pool.submit([gate, &blocked] {
    blocked.store(true);
    gate.wait();
  });
  while (!blocked.load()) std::this_thread::yield();

  RetrainQueue queue(&f.store, {}, nullptr, &pool, nullptr, nullptr,
                     /*max_pending=*/1);
  auto first = queue.submit(f.request(0, 920));
  // Same user at the cap: coalesces into the queued job — NO shed.
  auto again = queue.submit(f.request(0, 921));
  go.set_value();
  EXPECT_EQ(first.get().user_id(), 0);
  queue.wait_idle();
  const auto stats = queue.stats();
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.shed, 0u);
}

// --- ModelCache eviction pause ---------------------------------------------

TEST(ModelCache, PausedEvictionOvershootsThenRecoversOnResume) {
  ModelCache cache(/*capacity_bytes=*/100);
  const auto put = [&cache](int user) {
    cache.put(user, std::make_shared<const core::AuthModel>(),
              /*bytes=*/60);
  };
  put(1);
  put(2);  // 120 > 100: normal operation evicts user 1
  EXPECT_FALSE(cache.contains(1));

  cache.set_eviction_paused(true);
  put(3);
  put(4);  // budget far exceeded, but everything must stay servable
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(4));
  EXPECT_EQ(cache.stats().entries, 3u);

  cache.set_eviction_paused(false);  // recovery: evict back down to budget
  EXPECT_LE(cache.stats().bytes, 100u);
  EXPECT_TRUE(cache.contains(4)) << "the hottest entry survives the purge";
}

// --- Gateway end-to-end: degrade, serve, replay ----------------------------

std::vector<std::vector<double>> gw_vectors(int user, std::size_t n,
                                            std::uint64_t seed) {
  return train_vectors(user, n, seed);
}

TEST(AuthGatewayResilience, DegradesServesFromMemoryAndReplaysOnRecovery) {
  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("sy_resilience_gw_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(root);
  auto chaos = std::make_shared<ChaosController>();
  util::SimClock clock;
  clock.advance_ns(1);

  GatewayConfig config;
  config.persist_dir = root + "/pop";
  config.model_dir = root + "/models";
  config.persist_sync_every = 1;
  config.breaker.failure_threshold = 1;
  config.breaker.cooldown_ns = 1'000;  // simulated: no real waiting
  config.io_retry.max_attempts = 1;
  config.clock = sim_clock_fn(clock);
  config.io_sleep = [](std::uint64_t) {};
  config.volume =
      std::make_shared<ChaosVolume>(std::make_shared<FileVolume>(), chaos);

  {
    AuthGateway gateway(config);
    // Healthy enrollment: population + a model on disk and in cache.
    for (int u = 0; u < 3; ++u) {
      gateway.contribute(u, kStationary, gw_vectors(u, 30, 10 + u));
    }
    core::VectorsByContext positives;
    positives[kStationary] = gw_vectors(0, 30, 10);
    (void)gateway.enroll(0, positives, 99, /*contribute_positives=*/false);

    // The storm: every disk write fails. The first failed append trips the
    // breaker (threshold 1).
    chaos->arm(parse_fault_plan("error"));
    EXPECT_NO_THROW(
        gateway.contribute(1, kStationary, gw_vectors(1, 5, 777)))
        << "contributions are acked (deferred), never bounced";
    EXPECT_EQ(gateway.persistence_breaker().state(),
              CircuitBreaker::State::kOpen);
    EXPECT_GT(gateway.store().deferred_records(), 0u);

    // Degraded scoring: cached model, no disk involved.
    const auto decisions =
        gateway.score_batch(0, kStationary, gw_vectors(0, 5, 321));
    EXPECT_EQ(decisions.size(), 5u);

    // A retrain-style install mid-storm parks its bundle for later.
    core::VectorsByContext fresh;
    fresh[kStationary] = gw_vectors(0, 30, 424);
    (void)gateway.enroll(0, fresh, 100, /*contribute_positives=*/false);
    EXPECT_GE(gateway.pending_bundle_count(), 1u);

    // Recovery: heal the volume, wait out the (simulated) cooldown, and let
    // the next write be the half-open probe.
    chaos->disarm();
    clock.advance_ns(2'000);
    EXPECT_NO_THROW(
        gateway.contribute(2, kStationary, gw_vectors(2, 5, 888)));
    gateway.wait_idle();
    gateway.wait_replay_idle();
    EXPECT_EQ(gateway.persistence_breaker().state(),
              CircuitBreaker::State::kClosed);
    EXPECT_EQ(gateway.store().deferred_records(), 0u);
    EXPECT_EQ(gateway.pending_bundle_count(), 0u);
    EXPECT_GE(gateway.persistence_breaker().opens(), 1u);
    EXPECT_GT(gateway.persistence_breaker().degraded_ns(), 0u);
  }

  // Restart: everything acknowledged during the storm is on disk now.
  {
    GatewayConfig fresh_config;
    fresh_config.persist_dir = root + "/pop";
    fresh_config.model_dir = root + "/models";
    AuthGateway recovered(fresh_config);
    EXPECT_GE(recovered.stats().recovered_users, 1u);
    const auto snapshot = recovered.store().snapshot();
    std::size_t vectors = 0;
    for (const auto& [context, bucket] : *snapshot) vectors += bucket.size();
    EXPECT_EQ(vectors, 30u * 3u + 5u * 2u)
        << "deferred storm contributions included";
    const auto decisions =
        recovered.score_batch(0, kStationary, gw_vectors(0, 5, 321));
    EXPECT_EQ(decisions.size(), 5u);
  }
  std::filesystem::remove_all(root);
}

TEST(AuthGatewayResilience, PermanentBundleErrorDefersWithoutBackoff) {
  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("sy_resilience_enotdir_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  GatewayConfig config;
  config.model_dir = root + "/models";
  config.io_retry.max_attempts = 3;
  std::size_t sleeps = 0;
  config.io_sleep = [&sleeps](std::uint64_t) { ++sleeps; };
  {
    AuthGateway gateway(config);
    // The bundle directory becomes a regular file after start-up, so every
    // bundle publish fails with ENOTDIR — a fault no backoff can cure.
    std::filesystem::remove_all(config.model_dir);
    std::ofstream(config.model_dir) << "not a directory";
    gateway.contribute(1, kStationary, gw_vectors(1, 30, 11));
    core::VectorsByContext positives;
    positives[kStationary] = gw_vectors(0, 30, 10);
    (void)gateway.enroll(0, positives, 99, /*contribute_positives=*/false);
    EXPECT_EQ(sleeps, 0u) << "a permanent error is not retried";
    EXPECT_EQ(gateway.pending_bundle_count(), 1u);
    const auto decisions =
        gateway.score_batch(0, kStationary, gw_vectors(0, 5, 321));
    EXPECT_EQ(decisions.size(), 5u) << "scoring goes on from the cache";
  }
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace sy::serve
