// Scenario harness (analysis/scenarios.h): registry, tiny end-to-end runs
// against a live gateway, and the JSON artifact writer.
#include "analysis/scenarios.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

namespace sy::analysis {
namespace {

// Smallest options that still exercise the full path: corpus build, gateway
// enrollment, live scoring. Shared across tests to keep the suite fast.
ScenarioOptions tiny_options() {
  ScenarioOptions options;
  options.n_users = 3;
  options.windows_per_context = 40;
  options.seed = 913;
  options.attackers_per_victim = 1;
  options.trials_per_attacker = 1;
  options.attack_seconds = 18.0;
  options.pickup_sessions = 1;
  options.drift_days = 4.0;
  options.burst_rounds = 2;
  return options;
}

TEST(Scenarios, RegistryListsTheCanonicalMatrix) {
  const auto& names = scenario_names();
  ASSERT_EQ(names.size(), 6u);
  EXPECT_EQ(names[0], "masquerade_campaign");
  EXPECT_EQ(names[1], "pickup_moment");
  EXPECT_EQ(names[2], "behavioral_drift");
  EXPECT_EQ(names[3], "flash_crowd");
  EXPECT_EQ(names[4], "disk_fault_storm");
  EXPECT_EQ(names[5], "overload_shed");
  EXPECT_THROW(run_scenario("no_such_scenario", tiny_options()),
               std::invalid_argument);
}

TEST(Scenarios, MasqueradeCampaignReadsSurvivalOffTheLiveGateway) {
  const ScenarioResult result =
      run_scenario("masquerade_campaign", tiny_options());
  EXPECT_EQ(result.name, "masquerade_campaign");

  // 18 s attacks at 6 s windows: 4 survival points, anchored at 1.0 and
  // monotone non-increasing (the gateway's lockout is permanent in-trial).
  ASSERT_EQ(result.survival_fraction.size(), 4u);
  EXPECT_DOUBLE_EQ(result.survival_fraction[0], 1.0);
  EXPECT_TRUE(std::is_sorted(result.survival_fraction.rbegin(),
                             result.survival_fraction.rend()));
  EXPECT_DOUBLE_EQ(result.survival_time_s.back(), 18.0);

  // The serving-side tallies must land in the gateway registry: the summary
  // is recomputable from the metric snapshot alone.
  EXPECT_GT(result.summary_value("trials"), 0.0);
  EXPECT_EQ(result.metrics.counters.at("attack.trials"),
            static_cast<std::uint64_t>(result.summary_value("trials")));
  EXPECT_GT(result.metrics.counters.at("attack.windows"), 0u);
  EXPECT_GE(result.summary_value("far_under_attack"), 0.0);
  EXPECT_TRUE(result.metrics.histograms.count("gateway.score_ns"));
}

TEST(Scenarios, BehavioralDriftRunsRetrainsThroughTheGateway) {
  const ScenarioResult result =
      run_scenario("behavioral_drift", tiny_options());
  EXPECT_EQ(result.name, "behavioral_drift");
  EXPECT_GT(result.summary_value("windows"), 0.0);
  // The trigger counter in the snapshot is the same count the summary
  // reports (rising-edge latched in the gateway).
  EXPECT_EQ(
      result.metrics.counters.at("gateway.confidence.retrain_triggers"),
      static_cast<std::uint64_t>(result.summary_value("retrain_triggers")));
  // Every retrain the scenario ran went through report_drift.
  EXPECT_EQ(result.metrics.counters.at("gateway.drift_reports"),
            static_cast<std::uint64_t>(result.summary_value("retrains_run")));
}

TEST(Scenarios, DiskFaultStormKeepsServingAndLosesNothing) {
  ScenarioOptions options = tiny_options();
  options.storm_rounds = 2;
  const ScenarioResult result = run_scenario("disk_fault_storm", options);
  EXPECT_EQ(result.name, "disk_fault_storm");
  // The scenario's own invariants are the assertions: mid-storm scoring
  // never failed, every contribution was acked, the breaker opened and
  // re-closed, and the fresh-store recovery matched byte for byte.
  EXPECT_TRUE(result.passed) << (result.failures.empty()
                                     ? std::string("(no failures recorded)")
                                     : result.failures.front());
  EXPECT_GT(result.summary_value("records_deferred"), 0.0);
  EXPECT_EQ(result.summary_value("digest_match"), 1.0);
  EXPECT_EQ(result.summary_value("recovered_contributions"),
            result.summary_value("injected_contributions"));
  EXPECT_GE(result.metrics.counters.at("gateway.breaker.opens"), 1u);
}

TEST(Scenarios, OverloadShedRejectsWithTypedErrorsAndHoldsP99) {
  ScenarioOptions options = tiny_options();
  options.overload_threads = 4;
  options.overload_requests_per_thread = 25;
  // Service time on the simulated gateway clock: the p99 invariant must not
  // depend on how busy the host is (the wall-clock bound is a bench gate).
  options.overload_sim_service_ns = 250'000;
  const ScenarioResult result = run_scenario("overload_shed", options);
  EXPECT_EQ(result.name, "overload_shed");
  EXPECT_TRUE(result.passed) << (result.failures.empty()
                                     ? std::string("(no failures recorded)")
                                     : result.failures.front());
  EXPECT_GT(result.summary_value("shed_requests"), 0.0);
  EXPECT_GT(result.summary_value("probe_shed"), 0.0);
  EXPECT_EQ(result.summary_value("shed_deadline"), 1.0);
  // Burst accounting: shed_requests also counts phase-3 probes, which are
  // issued outside the burst.
  EXPECT_EQ(result.summary_value("accepted_requests") +
                result.summary_value("shed_requests") -
                result.summary_value("probe_shed"),
            result.summary_value("issued_requests"));
  EXPECT_GE(result.metrics.counters.at("gateway.admission.shed_saturated"),
            1u);
  // Every accepted request costs exactly the simulated service time.
  EXPECT_EQ(result.summary_value("baseline_p99_us"), 250.0);
  EXPECT_EQ(result.summary_value("burst_p99_us"), 250.0);
}

TEST(Scenarios, JsonArtifactCarriesTheMatrixSchema) {
  ScenarioResult result;
  result.name = "masquerade_campaign";
  result.passed = false;
  result.failures = {"far is \"zero\""};
  result.summary = {{"trials", 8.0}, {"far_under_attack", 0.125}};
  result.survival_time_s = {0.0, 6.0};
  result.survival_fraction = {1.0, 0.5};

  const std::string json = scenario_json(result);
  EXPECT_NE(json.find("\"bench\": \"bench_scenarios\""), std::string::npos);
  EXPECT_NE(json.find("\"scenario\": \"masquerade_campaign\""),
            std::string::npos);
  EXPECT_NE(json.find("\"passed\": false"), std::string::npos);
  // Embedded quotes must come out escaped.
  EXPECT_NE(json.find("far is \\\"zero\\\""), std::string::npos);
  EXPECT_NE(json.find("\"far_under_attack\": 0.125"), std::string::npos);
  EXPECT_NE(json.find("\"fraction_alive\": [1, 0.5]"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
}

TEST(Scenarios, SummaryValueFallsBackForUnknownKeys) {
  ScenarioResult result;
  result.summary = {{"a", 1.5}};
  EXPECT_DOUBLE_EQ(result.summary_value("a"), 1.5);
  EXPECT_DOUBLE_EQ(result.summary_value("missing", -2.0), -2.0);
}

}  // namespace
}  // namespace sy::analysis
