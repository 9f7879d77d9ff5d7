// End-to-end integration tests: full agents training against the full
// environment on small graphs, checking that learning actually happens and
// that runs are reproducible.
#include <gtest/gtest.h>

#include <cmath>

#include "core/eagle_agent.h"
#include "core/env.h"
#include "core/expert_policies.h"
#include "core/post_agent.h"
#include "models/synthetic.h"
#include "models/zoo.h"
#include "rl/trainer.h"

namespace eagle {
namespace {

using core::AgentDims;

AgentDims TestDims() {
  AgentDims dims;
  dims.num_groups = 12;
  dims.grouper_hidden = 12;
  dims.placer_hidden = 24;
  dims.attn_dim = 12;
  dims.bridge_hidden = 8;
  dims.device_embed_dim = 4;
  return dims;
}

graph::OpGraph WorkloadGraph() {
  // Four heavy parallel chains: the optimal placement spreads chains
  // across GPUs, misplacement on CPU is catastrophic — a clear learning
  // signal with a known good structure.
  return models::BuildParallelChains(4, 10, 1 << 18, 2e10);
}

TEST(Integration, EagleLearnsParallelChains) {
  auto graph = WorkloadGraph();
  const auto cluster = sim::MakeDefaultCluster();
  core::PlacementEnvironment env(graph, cluster);
  auto agent = core::MakeEagleAgent(graph, cluster, TestDims(), 21);
  rl::TrainerOptions options;
  options.total_samples = 120;
  options.seed = 22;
  const auto result = rl::TrainAgent(*agent, env, options);
  ASSERT_TRUE(result.found_valid);
  // Early samples are far from optimal; training must improve on the
  // first valid sample by a solid margin.
  double first_valid = 0.0;
  for (const auto& point : result.history) {
    if (std::isfinite(point.per_step_seconds)) {
      first_valid = point.per_step_seconds;
      break;
    }
  }
  EXPECT_LT(result.best_per_step_seconds, first_valid);
  // And it must beat the all-on-one-GPU placement (chains parallelize).
  const auto single =
      env.Evaluate(core::SingleGpuPlacement(graph, cluster), nullptr);
  ASSERT_TRUE(single.valid);
  EXPECT_LT(result.best_per_step_seconds,
            single.true_per_step_seconds * 1.05);
}

TEST(Integration, TrainingIsDeterministic) {
  auto graph = models::BuildParallelChains(2, 6, 1 << 14, 1e9);
  const auto cluster = sim::MakeDefaultCluster();
  rl::TrainerOptions options;
  options.total_samples = 40;
  options.seed = 23;

  core::PlacementEnvironment env1(graph, cluster);
  auto agent1 = core::MakeEagleAgent(graph, cluster, TestDims(), 24);
  const auto r1 = rl::TrainAgent(*agent1, env1, options);

  core::PlacementEnvironment env2(graph, cluster);
  auto agent2 = core::MakeEagleAgent(graph, cluster, TestDims(), 24);
  const auto r2 = rl::TrainAgent(*agent2, env2, options);

  EXPECT_DOUBLE_EQ(r1.best_per_step_seconds, r2.best_per_step_seconds);
  EXPECT_EQ(r1.invalid_samples, r2.invalid_samples);
  ASSERT_EQ(r1.history.size(), r2.history.size());
  EXPECT_EQ(r1.history.back().virtual_hours,
            r2.history.back().virtual_hours);
}

TEST(Integration, PostAgentTrainsWithPpoCe) {
  auto graph = WorkloadGraph();
  const auto cluster = sim::MakeDefaultCluster();
  core::PlacementEnvironment env(graph, cluster);
  auto agent = core::MakePostAgent(graph, cluster, 12, 25);
  rl::TrainerOptions options;
  options.algorithm = rl::Algorithm::kPpoCe;
  options.total_samples = 100;
  options.ce_interval = 30;
  options.seed = 26;
  const auto result = rl::TrainAgent(*agent, env, options);
  ASSERT_TRUE(result.found_valid);
  double first_valid = 0.0;
  for (const auto& point : result.history) {
    if (std::isfinite(point.per_step_seconds)) {
      first_valid = point.per_step_seconds;
      break;
    }
  }
  EXPECT_LT(result.best_per_step_seconds, first_valid * 1.01);
}

TEST(Integration, ReducedBenchmarksTrainEndToEnd) {
  // A fast sanity pass over all three paper benchmarks at reduced scale:
  // the full pipeline (model build -> env -> agent -> trainer) must
  // produce a valid improving placement for each.
  models::ZooOptions zoo;
  zoo.reduced = true;
  const auto cluster = sim::MakeScaledCluster(0.1).value();
  for (auto benchmark : models::AllBenchmarks()) {
    auto graph = models::BuildBenchmark(benchmark, zoo);
    core::PlacementEnvironment env(graph, cluster);
    auto agent = core::MakeEagleAgent(graph, cluster, TestDims(), 27);
    rl::TrainerOptions options;
    options.total_samples = 30;
    options.seed = 28;
    const auto result = rl::TrainAgent(*agent, env, options);
    EXPECT_TRUE(result.found_valid) << models::BenchmarkName(benchmark);
    EXPECT_EQ(result.total_samples, 30);
  }
}

}  // namespace
}  // namespace eagle
