// Property sweep over the execution simulator: invariants that must hold
// for ANY graph and ANY placement, checked across random DAG shapes,
// seeds, and placement styles.
#include <gtest/gtest.h>

#include <vector>

#include "models/synthetic.h"
#include "models/training_graph.h"
#include "sim/measurement.h"
#include "sim/simulator.h"

namespace eagle::sim {
namespace {

struct PropertyCase {
  int layers;
  int width;
  std::uint64_t seed;
  bool training;
};

class SimulatorProperty : public ::testing::TestWithParam<PropertyCase> {
 protected:
  void SetUp() override {
    support::Rng rng(GetParam().seed);
    models::RandomDagConfig config;
    config.layers = GetParam().layers;
    config.width = GetParam().width;
    config.cpu_only_fraction = 0.05;
    config.training = GetParam().training;
    graph_ = models::BuildRandomDag(config, rng);
    cluster_ = MakeDefaultCluster();
  }

  Placement RandomPlacement(std::uint64_t seed) const {
    support::Rng rng(seed);
    std::vector<DeviceId> devices(static_cast<std::size_t>(graph_.num_ops()));
    for (auto& d : devices) {
      d = static_cast<DeviceId>(
          rng.NextBelow(static_cast<std::uint64_t>(cluster_.num_devices())));
    }
    Placement placement(graph_, std::move(devices));
    placement.Normalize(graph_, cluster_);
    return placement;
  }

  graph::OpGraph graph_;
  ClusterSpec cluster_;
};

TEST_P(SimulatorProperty, Deterministic) {
  ExecutionSimulator simulator(graph_, cluster_);
  const auto placement = RandomPlacement(1);
  const auto a = simulator.Run(placement);
  const auto b = simulator.Run(placement);
  EXPECT_DOUBLE_EQ(a.step_seconds, b.step_seconds);
  EXPECT_EQ(a.transfer_bytes_total, b.transfer_bytes_total);
  EXPECT_EQ(a.device_peak_bytes, b.device_peak_bytes);
}

TEST_P(SimulatorProperty, StepBoundsAndBusyTimes) {
  ExecutionSimulator simulator(graph_, cluster_);
  for (std::uint64_t s = 1; s <= 3; ++s) {
    const auto result = simulator.Run(RandomPlacement(s));
    // Step time at least the busiest device, at most the serial sum.
    double total_busy = 0.0;
    for (double busy : result.device_busy_seconds) {
      EXPECT_LE(busy, result.step_seconds + 1e-12);
      total_busy += busy;
    }
    EXPECT_GE(total_busy + result.transfer_seconds_total + 1e-12,
              result.step_seconds);
  }
}

TEST_P(SimulatorProperty, SingleDeviceMatchesSerialSum) {
  ExecutionSimulator simulator(graph_, cluster_);
  CostModel cost(cluster_);
  // All on CPU: no cpu_only conflicts, no transfers.
  const auto placement = Placement::AllOnDevice(graph_, cluster_, 0);
  const auto result = simulator.Run(placement);
  double expected = 0.0;
  for (graph::OpId i = 0; i < graph_.num_ops(); ++i) {
    expected += cost.ComputeSeconds(graph_.op(i), 0);
  }
  EXPECT_NEAR(result.step_seconds, expected, expected * 1e-9);
  EXPECT_EQ(result.num_transfers, 0);
}

TEST_P(SimulatorProperty, MemoryPeakAtLeastParams) {
  ExecutionSimulator simulator(graph_, cluster_);
  const auto result = simulator.Run(RandomPlacement(4));
  for (int d = 0; d < cluster_.num_devices(); ++d) {
    EXPECT_GE(result.device_peak_bytes[static_cast<std::size_t>(d)],
              result.device_param_bytes[static_cast<std::size_t>(d)]);
  }
}

TEST_P(SimulatorProperty, TransfersNeverExceedCrossEdges) {
  ExecutionSimulator simulator(graph_, cluster_);
  const auto placement = RandomPlacement(5);
  const auto result = simulator.Run(placement);
  int cross_edges = 0;
  for (const auto& e : graph_.edges()) {
    cross_edges += placement.device(e.src) != placement.device(e.dst);
  }
  EXPECT_LE(result.num_transfers, cross_edges);  // dedup can only reduce
}

TEST_P(SimulatorProperty, NormalizeIdempotent) {
  auto placement = RandomPlacement(6);
  const std::vector<DeviceId> before = placement.devices();
  placement.Normalize(graph_, cluster_);
  EXPECT_EQ(placement.devices(), before);
}

TEST_P(SimulatorProperty, MeasurementCostIsExactlySessionPlusSteps) {
  // The virtual clock charges exactly: session setup + first-step
  // parameter placement + total_steps × per-step time (warm-up steps
  // included — they run, they just aren't averaged).
  MeasurementOptions options;
  MeasurementSession session(graph_, cluster_, options);
  for (std::uint64_t s = 8; s <= 10; ++s) {
    const auto placement = RandomPlacement(s);
    const auto eval = session.Evaluate(placement);
    if (eval.valid) {
      const double expected =
          options.session_overhead_seconds +
          session.simulator().ParamTransferSeconds(placement) +
          options.total_steps * eval.true_per_step_seconds;
      EXPECT_NEAR(eval.measurement_cost_seconds, expected,
                  expected * 1e-12);
    } else {
      // OOM still burns the session setup before the framework aborts.
      EXPECT_DOUBLE_EQ(eval.measurement_cost_seconds,
                       options.session_overhead_seconds);
    }
  }
}

TEST_P(SimulatorProperty, MeasurementCostExceedsOverhead) {
  MeasurementOptions options;
  MeasurementSession session(graph_, cluster_, options);
  const auto eval = session.Evaluate(RandomPlacement(7));
  EXPECT_GE(eval.measurement_cost_seconds,
            options.session_overhead_seconds);
  if (eval.valid) {
    EXPECT_GE(eval.measurement_cost_seconds,
              options.total_steps * eval.true_per_step_seconds);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimulatorProperty,
    ::testing::Values(PropertyCase{6, 4, 11, false},
                      PropertyCase{12, 8, 12, false},
                      PropertyCase{20, 3, 13, false},
                      PropertyCase{4, 16, 14, false},
                      PropertyCase{8, 6, 15, true},
                      PropertyCase{15, 5, 16, true}));

}  // namespace
}  // namespace eagle::sim
