// Fault injection, retry/backoff and graceful degradation: the
// robustness layer of the measurement environment.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "core/env.h"
#include "models/synthetic.h"
#include "sim/fault.h"
#include "sim/measurement.h"
#include "support/retry.h"

namespace eagle {
namespace {

sim::Placement AllOn(const graph::OpGraph& graph,
                     const sim::ClusterSpec& cluster, sim::DeviceId device) {
  return sim::Placement::AllOnDevice(graph, cluster, device);
}

// A fully sized healthy draw (FaultInjector always emits sized vectors;
// hand-built draws must too — the simulator indexes them directly).
sim::FaultDraw HealthyDraw(const sim::ClusterSpec& cluster) {
  sim::FaultDraw draw;
  draw.device_down.assign(
      static_cast<std::size_t>(cluster.num_devices()), false);
  draw.device_compute_scale.assign(
      static_cast<std::size_t>(cluster.num_devices()), 1.0);
  draw.link_scale.assign(
      static_cast<std::size_t>(cluster.num_link_channels()), 1.0);
  return draw;
}

TEST(FaultProfile, EmptyStringDisabled) {
  const auto profile = sim::FaultProfileFromString("");
  EXPECT_FALSE(profile.enabled());
}

TEST(FaultProfile, BareNumberShorthand) {
  const auto profile = sim::FaultProfileFromString("0.2");
  EXPECT_DOUBLE_EQ(profile.transient_failure_rate, 0.2);
  EXPECT_DOUBLE_EQ(profile.device_down_rate, 0.05);
  EXPECT_DOUBLE_EQ(profile.straggler_rate, 0.2);
  EXPECT_DOUBLE_EQ(profile.degraded_link_rate, 0.2);
  EXPECT_TRUE(profile.enabled());
}

TEST(FaultProfile, KeyValueParsing) {
  const auto profile = sim::FaultProfileFromString(
      "crash=0.1,down=0.02,straggler=0.3,slowdown=3,link=0.15,"
      "linkfactor=4,seed=9");
  EXPECT_DOUBLE_EQ(profile.transient_failure_rate, 0.1);
  EXPECT_DOUBLE_EQ(profile.device_down_rate, 0.02);
  EXPECT_DOUBLE_EQ(profile.straggler_rate, 0.3);
  EXPECT_DOUBLE_EQ(profile.straggler_slowdown, 3.0);
  EXPECT_DOUBLE_EQ(profile.degraded_link_rate, 0.15);
  EXPECT_DOUBLE_EQ(profile.degraded_link_factor, 4.0);
  EXPECT_EQ(profile.seed, 9u);
}

TEST(FaultProfile, RejectsUnknownKeysAndBadValues) {
  EXPECT_THROW(sim::FaultProfileFromString("bogus=1"), std::logic_error);
  EXPECT_THROW(sim::FaultProfileFromString("crash=abc"), std::logic_error);
  EXPECT_THROW(sim::FaultProfileFromString("crash=-0.1"), std::logic_error);
}

TEST(FaultInjector, DeterministicPerSeed) {
  const auto cluster = sim::MakeDefaultCluster();
  const auto profile = sim::FaultProfileFromString("0.3");
  sim::FaultInjector injector(profile, cluster);
  support::Rng rng_a(42), rng_b(42);
  for (int i = 0; i < 20; ++i) {
    const auto a = injector.Draw(rng_a);
    const auto b = injector.Draw(rng_b);
    EXPECT_EQ(a.session_crash, b.session_crash);
    EXPECT_EQ(a.device_down, b.device_down);
    EXPECT_EQ(a.device_compute_scale, b.device_compute_scale);
    EXPECT_EQ(a.link_scale, b.link_scale);
  }
}

TEST(FaultInjector, CpuExemptFromDeviceFaults) {
  const auto cluster = sim::MakeDefaultCluster();
  auto profile = sim::FaultProfileFromString("down=0.9,straggler=0.9");
  sim::FaultInjector injector(profile, cluster);
  support::Rng rng(7);
  int gpu_faults = 0;
  for (int i = 0; i < 50; ++i) {
    const auto draw = injector.Draw(rng);
    // Device 0 is the CPU host: it launches the session, so it can
    // neither go down nor straggle.
    EXPECT_FALSE(draw.device_down[0]);
    EXPECT_DOUBLE_EQ(draw.device_compute_scale[0], 1.0);
    for (std::size_t d = 1; d < draw.device_down.size(); ++d) {
      gpu_faults += draw.device_down[d] ? 1 : 0;
    }
  }
  EXPECT_GT(gpu_faults, 0);
}

TEST(FaultInjector, DisabledProfileDrawsHealthy) {
  const auto cluster = sim::MakeDefaultCluster();
  sim::FaultInjector injector(sim::FaultProfile{}, cluster);
  support::Rng rng(1);
  const auto draw = injector.Draw(rng);
  EXPECT_FALSE(draw.session_crash);
  EXPECT_FALSE(draw.HasPerfFaults());
  EXPECT_EQ(draw.ToString(cluster), "healthy");
}

TEST(FaultInjector, RejectsAlwaysFailingProfile) {
  const auto cluster = sim::MakeDefaultCluster();
  sim::FaultProfile profile;
  profile.transient_failure_rate = 1.0;
  profile.device_down_rate = 1.0;
  EXPECT_THROW(sim::FaultInjector(profile, cluster), std::logic_error);
}

TEST(SimulatorFaults, StragglerScalesCompute) {
  const auto graph = models::BuildChain(12);
  const auto cluster = sim::MakeDefaultCluster();
  sim::ExecutionSimulator simulator(graph, cluster);
  const auto placement = AllOn(graph, cluster, 0);  // chain on one device
  const auto healthy = simulator.Run(placement);
  sim::FaultDraw draw = HealthyDraw(cluster);
  draw.device_compute_scale[0] = 2.0;
  const auto faulty = simulator.Run(placement, &draw);
  EXPECT_NEAR(faulty.step_seconds, 2.0 * healthy.step_seconds,
              healthy.step_seconds * 1e-9);
}

TEST(SimulatorFaults, DegradedLinksSlowCrossDeviceSteps) {
  const auto graph = models::BuildParallelChains(2, 4);
  const auto cluster = sim::MakeDefaultCluster();
  sim::ExecutionSimulator simulator(graph, cluster);
  // Split across two GPUs so transfers exist.
  std::vector<sim::DeviceId> devices(
      static_cast<std::size_t>(graph.num_ops()));
  for (std::size_t i = 0; i < devices.size(); ++i) {
    devices[i] = (i % 2 == 0) ? 1 : 2;
  }
  sim::Placement placement(graph, std::move(devices));
  placement.Normalize(graph, cluster);
  const auto healthy = simulator.Run(placement);
  ASSERT_GT(healthy.num_transfers, 0);
  sim::FaultDraw draw = HealthyDraw(cluster);
  draw.link_scale.assign(draw.link_scale.size(), 3.0);
  const auto faulty = simulator.Run(placement, &draw);
  EXPECT_GT(faulty.step_seconds, healthy.step_seconds);
}

TEST(MeasurementFaults, SessionCrashFailsAfterSetupCost) {
  const auto graph = models::BuildChain(6);
  const auto cluster = sim::MakeDefaultCluster();
  sim::MeasurementSession session(graph, cluster);
  sim::FaultDraw draw = HealthyDraw(cluster);
  draw.session_crash = true;
  const auto eval =
      session.EvaluateWithFaults(AllOn(graph, cluster, 1), draw);
  EXPECT_TRUE(eval.failed);
  EXPECT_FALSE(eval.valid);
  EXPECT_DOUBLE_EQ(eval.measurement_cost_seconds,
                   session.options().session_overhead_seconds);
}

TEST(MeasurementFaults, DownDeviceFailsOnlyPlacementsTouchingIt) {
  const auto graph = models::BuildChain(6);
  const auto cluster = sim::MakeDefaultCluster();
  sim::MeasurementSession session(graph, cluster);
  sim::FaultDraw draw = HealthyDraw(cluster);
  draw.device_down[1] = true;
  const auto hit =
      session.EvaluateWithFaults(AllOn(graph, cluster, 1), draw);
  EXPECT_TRUE(hit.failed);
  const auto miss =
      session.EvaluateWithFaults(AllOn(graph, cluster, 2), draw);
  EXPECT_FALSE(miss.failed);
  EXPECT_TRUE(miss.valid);
}

TEST(MeasurementNoise, FactorClampedPositive) {
  // Even an absurd stddev can never produce a non-positive (or wildly
  // inflated) per-step time.
  support::Rng rng(3);
  bool hit_low = false, hit_high = false;
  for (int i = 0; i < 1000; ++i) {
    const double f = sim::NoiseFactor(1000.0, rng);
    EXPECT_GE(f, 0.5);
    EXPECT_LE(f, 2.0);
    hit_low = hit_low || f == 0.5;
    hit_high = hit_high || f == 2.0;
  }
  EXPECT_TRUE(hit_low);
  EXPECT_TRUE(hit_high);
}

TEST(MeasurementNoise, NullRngIsExactlyNoiseless) {
  const auto graph = models::BuildChain(6);
  const auto cluster = sim::MakeDefaultCluster();
  sim::MeasurementOptions options;
  options.noise_stddev = 0.05;
  sim::MeasurementSession session(graph, cluster, options);
  const auto placement = AllOn(graph, cluster, 1);
  const auto a = session.Evaluate(placement, nullptr);
  const auto b = session.Evaluate(placement, nullptr);
  ASSERT_TRUE(a.valid);
  EXPECT_DOUBLE_EQ(a.per_step_seconds, a.true_per_step_seconds);
  EXPECT_DOUBLE_EQ(a.per_step_seconds, b.per_step_seconds);
}

TEST(MeasurementNoise, NegativeStddevRejected) {
  const auto graph = models::BuildChain(2);
  const auto cluster = sim::MakeDefaultCluster();
  sim::MeasurementOptions options;
  options.noise_stddev = -0.01;
  EXPECT_THROW(sim::MeasurementSession(graph, cluster, options),
               std::logic_error);
}

TEST(RetryPolicy, ExponentialGrowthWithCap) {
  support::RetryPolicy retry;
  retry.jitter_fraction = 0.0;
  EXPECT_DOUBLE_EQ(retry.BackoffSeconds(1), 5.0);
  EXPECT_DOUBLE_EQ(retry.BackoffSeconds(2), 10.0);
  EXPECT_DOUBLE_EQ(retry.BackoffSeconds(3), 20.0);
  EXPECT_DOUBLE_EQ(retry.BackoffSeconds(6), 120.0);  // capped (5·2^5=160)
}

TEST(RetryPolicy, JitterStaysBounded) {
  support::RetryPolicy retry;
  retry.jitter_fraction = 0.25;
  support::Rng rng(5);
  bool varied = false;
  double first = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double backoff = retry.BackoffSeconds(1, &rng);
    EXPECT_GE(backoff, 5.0 * 0.75);
    EXPECT_LE(backoff, 5.0 * 1.25);
    if (i == 0) first = backoff;
    varied = varied || backoff != first;
  }
  EXPECT_TRUE(varied);
}

TEST(RetryPolicy, ValidateRejectsBadConfigs) {
  support::RetryPolicy retry;
  retry.max_attempts = 0;
  EXPECT_THROW(retry.Validate(), std::logic_error);
  retry = {};
  retry.backoff_multiplier = 0.5;
  EXPECT_THROW(retry.Validate(), std::logic_error);
  retry = {};
  retry.jitter_fraction = 1.5;
  EXPECT_THROW(retry.Validate(), std::logic_error);
}

core::EnvironmentOptions CrashOnlyOptions() {
  core::EnvironmentOptions options;
  options.faults.transient_failure_rate = 1.0;  // every attempt crashes
  options.retry.max_attempts = 3;
  options.retry.jitter_fraction = 0.0;
  return options;
}

TEST(EnvironmentFaults, ExhaustedRetriesDegradeToPenalty) {
  const auto graph = models::BuildChain(6);
  const auto cluster = sim::MakeDefaultCluster();
  core::PlacementEnvironment env(graph, cluster, CrashOnlyOptions());
  const auto eval = env.Evaluate(AllOn(graph, cluster, 1), nullptr);
  EXPECT_FALSE(eval.valid);
  EXPECT_TRUE(eval.failed);
  EXPECT_EQ(eval.attempts, 3);
  // Clock: 3 attempts × session overhead + backoffs 5 s and 10 s —
  // every retried attempt charges the virtual clock exactly once.
  const double overhead =
      env.session().options().session_overhead_seconds;
  EXPECT_DOUBLE_EQ(eval.measurement_cost_seconds, 3 * overhead + 15.0);
  EXPECT_EQ(env.attempts(), 3);
  EXPECT_EQ(env.transient_failures(), 3);
  EXPECT_EQ(env.retries(), 2);
  EXPECT_EQ(env.exhausted_evaluations(), 1);
  EXPECT_DOUBLE_EQ(env.backoff_seconds_total(), 15.0);
}

TEST(EnvironmentFaults, StragglerObservedSlowerThanTruth) {
  const auto graph = models::BuildChain(6);
  const auto cluster = sim::MakeDefaultCluster();
  core::EnvironmentOptions options;
  options.faults.straggler_rate = 1.0;  // every GPU straggles, ×2
  options.measurement.noise_stddev = 0.0;
  core::PlacementEnvironment env(graph, cluster, options);
  const auto placement = AllOn(graph, cluster, 1);
  const auto eval = env.Evaluate(placement, nullptr);
  ASSERT_TRUE(eval.valid);
  EXPECT_FALSE(eval.failed);
  EXPECT_EQ(eval.attempts, 1);
  // The agent observes the degraded machine; ground truth is healthy.
  EXPECT_NEAR(eval.per_step_seconds, 2.0 * eval.true_per_step_seconds,
              eval.true_per_step_seconds * 1e-9);
  // Ground truth matches a fault-free environment's verdict.
  core::PlacementEnvironment clean_env(graph, cluster);
  const auto clean = clean_env.Evaluate(placement, nullptr);
  EXPECT_DOUBLE_EQ(eval.true_per_step_seconds,
                   clean.true_per_step_seconds);
}

TEST(EnvironmentFaults, TimeoutKillsStragglerAttempt) {
  const auto graph = models::BuildChain(6);
  const auto cluster = sim::MakeDefaultCluster();
  core::EnvironmentOptions options;
  options.faults.straggler_rate = 1.0;
  options.faults.straggler_slowdown = 100.0;  // pathological straggler
  options.retry.jitter_fraction = 0.0;
  options.retry.max_attempts = 2;
  // Tiny session overhead so the straggler's compute dominates the cost.
  options.measurement.session_overhead_seconds = 0.001;
  core::EnvironmentOptions clean_options;
  clean_options.measurement = options.measurement;
  core::PlacementEnvironment clean_env(graph, cluster, clean_options);
  const auto placement = AllOn(graph, cluster, 1);
  const auto clean = clean_env.Evaluate(placement, nullptr);
  // Timeout between the healthy cost and the ×100 cost: every attempt
  // overruns, is charged exactly the timeout, and counts as a failure.
  options.retry.attempt_timeout_seconds =
      2.0 * clean.measurement_cost_seconds;
  core::PlacementEnvironment env(graph, cluster, options);
  const auto eval = env.Evaluate(placement, nullptr);
  EXPECT_FALSE(eval.valid);
  EXPECT_TRUE(eval.failed);
  EXPECT_EQ(env.timeouts(), 2);
  EXPECT_DOUBLE_EQ(
      eval.measurement_cost_seconds,
      2 * options.retry.attempt_timeout_seconds + 5.0 /* backoff */);
}

TEST(EnvironmentFaults, StateRoundTripContinuesFaultStream) {
  const auto graph = models::BuildChain(6);
  const auto cluster = sim::MakeDefaultCluster();
  core::EnvironmentOptions options;
  options.faults = sim::FaultProfileFromString("0.3");
  options.retry.jitter_fraction = 0.0;
  const auto placement = AllOn(graph, cluster, 1);

  // Reference: one environment evaluates five times in a row.
  core::PlacementEnvironment reference(graph, cluster, options);
  for (int i = 0; i < 2; ++i) reference.Evaluate(placement, nullptr);
  std::vector<sim::EvalResult> expected;
  for (int i = 0; i < 3; ++i) {
    expected.push_back(reference.Evaluate(placement, nullptr));
  }

  // Checkpointed: two evaluations, state snapshot, restore into a fresh
  // environment, three more — the fault stream must continue exactly.
  core::PlacementEnvironment first(graph, cluster, options);
  for (int i = 0; i < 2; ++i) first.Evaluate(placement, nullptr);
  std::stringstream blob;
  first.SerializeState(blob);
  core::PlacementEnvironment resumed(graph, cluster, options);
  resumed.DeserializeState(blob);
  EXPECT_EQ(resumed.attempts(), first.attempts());
  EXPECT_EQ(resumed.transient_failures(), first.transient_failures());
  for (int i = 0; i < 3; ++i) {
    const auto eval = resumed.Evaluate(placement, nullptr);
    EXPECT_EQ(eval.valid, expected[static_cast<std::size_t>(i)].valid);
    EXPECT_EQ(eval.failed, expected[static_cast<std::size_t>(i)].failed);
    EXPECT_EQ(eval.attempts, expected[static_cast<std::size_t>(i)].attempts);
    EXPECT_DOUBLE_EQ(
        eval.measurement_cost_seconds,
        expected[static_cast<std::size_t>(i)].measurement_cost_seconds);
    EXPECT_DOUBLE_EQ(
        eval.per_step_seconds,
        expected[static_cast<std::size_t>(i)].per_step_seconds);
  }
}

TEST(EnvironmentFaults, DisabledFaultsKeepLegacyBehavior) {
  const auto graph = models::BuildChain(6);
  const auto cluster = sim::MakeDefaultCluster();
  core::PlacementEnvironment env(graph, cluster);
  const auto placement = AllOn(graph, cluster, 1);
  const auto a = env.Evaluate(placement, nullptr);
  const auto b = env.Evaluate(placement, nullptr);
  ASSERT_TRUE(a.valid);
  EXPECT_DOUBLE_EQ(a.per_step_seconds, b.per_step_seconds);
  EXPECT_EQ(env.transient_failures(), 0);
  EXPECT_EQ(env.retries(), 0);
  EXPECT_EQ(env.attempts(), 2);
}

}  // namespace
}  // namespace eagle
