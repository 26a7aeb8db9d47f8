// Named end-to-end scenarios against a LIVE serve::AuthGateway.
//
// Where sweeps.h reproduces the paper's offline figures, a scenario stands
// up the real serving stack (gateway + session tracking) and drives it with
// synthesized traffic shaped like a deployment event:
//
//   masquerade_campaign  sustained §V-G mimicry trials interleaved with
//                        genuine victim traffic; FAR-under-attack, lockout
//                        survival, and detection-latency percentiles are
//                        read from the gateway's obs registry, not from an
//                        offline model.
//   pickup_moment        Secure Pick-Up-style transient: the first windows
//                        after a pick-up scored under the matched moving
//                        model vs the stale stationary one the lagging
//                        context detector would still serve.
//   behavioral_drift     days of drifting genuine traffic until the
//                        gateway's confidence monitor demands a retrain;
//                        the retrain runs through report_drift and accuracy
//                        recovery is measured.
//   flash_crowd          the whole population scoring at once (parallel
//                        burst) vs a sequential steady phase; throughput
//                        and score-latency percentiles under contention.
//   disk_fault_storm     chaos harness: the persistence volume (population
//                        log + snapshots + model bundles) starts throwing
//                        EIO mid-run; the gateway must keep scoring, ack
//                        every contribution, open its breaker, and on
//                        recovery replay the deferred backlog — verified by
//                        recovering the directory into a fresh store and
//                        byte-comparing serialized populations.
//   overload_shed        a thread burst overruns the scoring admission
//                        gate; excess requests must shed with OverloadError
//                        (never queue), deadline budgets already expired
//                        must shed as kDeadline, and the p99 of ACCEPTED
//                        requests must stay within 2x of the unloaded
//                        baseline.
//
// Each scenario returns a ScenarioResult with an ordered numeric summary,
// its pass/fail invariants, and the gateway's full metric snapshot;
// scenario_json renders the one-artifact-per-scenario JSON that
// scripts/bench_compare.py --matrix diffs across runs.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "attack/mimic.h"
#include "obs/registry.h"

namespace sy::analysis {

struct ScenarioOptions {
  /// Users in the corpus / enrolled in the gateway.
  std::size_t n_users{6};
  /// Enrollment corpus windows per user per context.
  std::size_t windows_per_context{120};
  double window_seconds{6.0};
  std::uint64_t seed{17};

  // --- masquerade_campaign ---
  std::size_t attackers_per_victim{2};
  std::size_t trials_per_attacker{2};
  double attack_seconds{36.0};
  /// A practiced mimic (well below the defaults' casual imitation): the
  /// campaign must exercise the accept-then-lock path, not only instant
  /// rejection.
  attack::MimicSkill skill{0.25, 0.45, 0.10};

  // --- pickup_moment ---
  /// Windows right after the pick-up counted as the transient.
  std::size_t pickup_windows{2};
  std::size_t pickup_sessions{4};

  // --- behavioral_drift ---
  double drift_days{10.0};
  double drift_rate_scale{4.0};

  // --- flash_crowd ---
  /// Batches every user scores in each phase.
  std::size_t burst_rounds{8};

  // --- disk_fault_storm ---
  /// Contribute+score rounds driven while the volume throws EIO.
  std::size_t storm_rounds{5};

  // --- overload_shed ---
  /// Concurrent client threads hammering the admission gate.
  std::size_t overload_threads{8};
  std::size_t overload_requests_per_thread{40};
  /// Admission gate concurrency bound during the burst.
  std::size_t overload_max_concurrent{2};
  /// 0 measures accepted latency in wall time. A positive value runs the
  /// gateway on per-thread simulated clocks and charges every accepted
  /// request exactly this many ns, so the p99 bound holds deterministically
  /// (unit tests); the wall-clock bound stays with bench_scenarios.
  std::int64_t overload_sim_service_ns{0};
};

struct ScenarioResult {
  std::string name;
  bool passed{true};
  /// Violated invariants, human-readable (empty when passed).
  std::vector<std::string> failures;
  /// Ordered numeric summary — these become the matrix-diffable metrics.
  std::vector<std::pair<std::string, double>> summary;
  /// Lockout survival curve (masquerade_campaign only; empty otherwise).
  std::vector<double> survival_time_s;
  std::vector<double> survival_fraction;
  /// The gateway registry at scenario end (gateway.*, attack.*, cache.*...).
  obs::Snapshot metrics;

  double summary_value(const std::string& key, double fallback = 0.0) const;
};

/// The registered scenario names, in canonical order.
const std::vector<std::string>& scenario_names();

/// Runs one named scenario end to end. Throws std::invalid_argument for an
/// unknown name.
ScenarioResult run_scenario(const std::string& name,
                            const ScenarioOptions& options);

/// Renders the artifact schema bench_compare.py --matrix consumes:
///   {"bench": "bench_scenarios", "scenario": ..., "passed": ...,
///    "failures": [...], "summary": {...},
///    "survival": {"time_s": [...], "fraction_alive": [...]},
///    "metrics": {obs snapshot}}
std::string scenario_json(const ScenarioResult& result);

}  // namespace sy::analysis
