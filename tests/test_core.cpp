#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "core/bridge_rnn.h"
#include "core/eagle_agent.h"
#include "core/env.h"
#include "core/expert_policies.h"
#include "core/gcn_placer.h"
#include "core/grouper_ffn.h"
#include "core/post_agent.h"
#include "core/seq2seq_placer.h"
#include "models/bert.h"
#include "models/gnmt.h"
#include "models/inception_v3.h"
#include "models/synthetic.h"
#include "models/zoo.h"
#include "partition/metis_like.h"
#include "rl/episode.h"

namespace eagle::core {
namespace {

graph::OpGraph SmallGraph() {
  support::Rng rng(1);
  models::RandomDagConfig config;
  config.layers = 6;
  config.width = 5;
  config.cpu_only_fraction = 0.1;
  return models::BuildRandomDag(config, rng);
}

AgentDims SmallDims() {
  AgentDims dims;
  dims.num_groups = 8;
  dims.grouper_hidden = 8;
  dims.placer_hidden = 16;
  dims.attn_dim = 8;
  dims.bridge_hidden = 8;
  dims.device_embed_dim = 4;
  return dims;
}

TEST(Environment, PenaltyPositiveAndRepeatedEvaluationIdentical) {
  auto graph = SmallGraph();
  const auto cluster = sim::MakeDefaultCluster();
  PlacementEnvironment env(graph, cluster);
  EXPECT_GT(env.InvalidPenaltySeconds(), 0.0);
  const auto placement = sim::Placement::AllOnDevice(graph, cluster, 1);
  const auto r1 = env.Evaluate(placement, nullptr);
  const auto r2 = env.Evaluate(placement, nullptr);
  EXPECT_EQ(r1.true_per_step_seconds, r2.true_per_step_seconds);
  EXPECT_EQ(env.evaluations(), 2);
}

TEST(Environment, NoiseReappliedOnEachEvaluation) {
  auto graph = SmallGraph();
  const auto cluster = sim::MakeDefaultCluster();
  PlacementEnvironment env(graph, cluster);
  const auto placement = sim::Placement::AllOnDevice(graph, cluster, 1);
  support::Rng rng(2);
  const auto r1 = env.Evaluate(placement, &rng);
  const auto r2 = env.Evaluate(placement, &rng);
  EXPECT_NE(r1.per_step_seconds, r2.per_step_seconds);
  EXPECT_EQ(r1.true_per_step_seconds, r2.true_per_step_seconds);
}

// Checkpoints embed this blob: 4×u64 fault-RNG state, 7×i32 counters
// (the first is the retired cache-hit slot), then the backoff total.
TEST(Environment, StateBlobKeepsParentLayout) {
  auto graph = SmallGraph();
  const auto cluster = sim::MakeDefaultCluster();
  PlacementEnvironment env(graph, cluster);
  std::ostringstream out;
  env.SerializeState(out);
  EXPECT_EQ(out.str().size(), 68u);

  // A blob as the cache-era environment wrote it, with a non-zero count
  // in the retired slot.
  std::string blob;
  auto append = [&blob](const auto& value) {
    char bytes[sizeof(value)];
    std::memcpy(bytes, &value, sizeof(value));
    blob.append(bytes, sizeof(value));
  };
  for (std::uint64_t s : {11u, 22u, 33u, 44u}) append(s);
  for (std::int32_t c : {17, 5, 9, 2, 1, 3, 1}) append(c);
  append(12.5);
  ASSERT_EQ(blob.size(), 68u);

  PlacementEnvironment restored(graph, cluster);
  std::istringstream in(blob);
  restored.DeserializeState(in);
  EXPECT_EQ(restored.evaluations(), 5);
  EXPECT_EQ(restored.attempts(), 9);
  EXPECT_EQ(restored.retries(), 3);
  EXPECT_EQ(restored.exhausted_evaluations(), 1);
  EXPECT_EQ(restored.backoff_seconds_total(), 12.5);
}

TEST(GrouperFfn, SampleAndScoreConsistent) {
  auto graph = SmallGraph();
  nn::ParamStore store;
  support::Rng init_rng(3);
  GrouperFFN grouper(store, graph::OpFeatureDim(), 8, 6, init_rng);
  const auto features = MakeOpFeatures(graph, graph::FeatureMode::kReconstructed);

  support::Rng rng(4);
  nn::Tape tape1;
  const auto sampled = grouper.Run(tape1, tape1.Input(features), &rng, nullptr);
  EXPECT_EQ(static_cast<int>(sampled.grouping.size()), graph.num_ops());

  nn::Tape tape2;
  const auto scored =
      grouper.Run(tape2, tape2.Input(features), nullptr, &sampled.grouping);
  EXPECT_FLOAT_EQ(tape1.value(sampled.log_prob).at(0, 0),
                  tape2.value(scored.log_prob).at(0, 0));
  // Entropy of a k-way categorical is at most log k.
  EXPECT_LE(tape1.value(sampled.entropy).at(0, 0),
            std::log(6.0f) + 1e-4f);
  EXPECT_GE(tape1.value(sampled.entropy).at(0, 0), 0.0f);
}

TEST(BridgeRnn, OutputShapeAndGradientPathToGrouper) {
  auto graph = SmallGraph();
  nn::ParamStore store;
  support::Rng init_rng(5);
  GrouperFFN grouper(store, graph::OpFeatureDim(), 8, 6, init_rng);
  BridgeRnn bridge(store, 8, 4, init_rng);
  const auto features = MakeOpFeatures(graph, graph::FeatureMode::kReconstructed);
  support::Rng rng(6);
  nn::Tape tape;
  const auto sampled = grouper.Run(tape, tape.Input(features), &rng, nullptr);
  nn::Var conditioning =
      bridge.Apply(tape, grouper, sampled.softmax, sampled.grouping);
  EXPECT_EQ(tape.value(conditioning).rows(), 6);
  EXPECT_EQ(tape.value(conditioning).cols(), 4);
  // The EAGLE link: a loss on the bridge output reaches grouper params.
  store.ZeroGrads();
  tape.Backward(tape.Sum(conditioning));
  EXPECT_GT(nn::SquaredNorm(store.Find("grouper/l2/w")->grad), 0.0);
}

class PlacerVariants : public ::testing::TestWithParam<AttentionVariant> {};

TEST_P(PlacerVariants, RolloutAndScoringConsistent) {
  nn::ParamStore store;
  support::Rng init_rng(7);
  Seq2SeqPlacer placer(store, /*input_dim=*/10, /*hidden=*/12,
                       /*attn_dim=*/8, /*device_embed_dim=*/4,
                       /*num_devices=*/5, GetParam(), init_rng);
  support::Rng data_rng(8);
  nn::Tensor embeds(7, 10);
  nn::UniformInit(embeds, -1, 1, data_rng);

  support::Rng rng(9);
  nn::Tape tape1;
  const auto rollout = placer.Run(tape1, tape1.Input(embeds), &rng, nullptr);
  ASSERT_EQ(rollout.devices.size(), 7u);
  for (auto d : rollout.devices) {
    EXPECT_GE(d, 0);
    EXPECT_LT(d, 5);
  }
  nn::Tape tape2;
  const auto scored =
      placer.Run(tape2, tape2.Input(embeds), nullptr, &rollout.devices);
  EXPECT_FLOAT_EQ(tape1.value(rollout.log_prob).at(0, 0),
                  tape2.value(scored.log_prob).at(0, 0));
  EXPECT_EQ(scored.devices, rollout.devices);
}

INSTANTIATE_TEST_SUITE_P(BeforeAndAfter, PlacerVariants,
                         ::testing::Values(AttentionVariant::kBefore,
                                           AttentionVariant::kAfter));

TEST(GcnPlacer, RolloutShapes) {
  nn::ParamStore store;
  support::Rng init_rng(10);
  GcnPlacer placer(store, 10, 12, 5, init_rng);
  support::Rng data_rng(11);
  nn::Tensor embeds(6, 10);
  nn::UniformInit(embeds, -1, 1, data_rng);
  nn::Tensor adj(6, 6, 1.0f / 6.0f);
  support::Rng rng(12);
  nn::Tape tape;
  const auto rollout = placer.Run(tape, tape.Input(embeds), tape.Input(adj),
                                  &rng, nullptr);
  EXPECT_EQ(rollout.devices.size(), 6u);
  nn::Tape tape2;
  const auto scored = placer.Run(tape2, tape2.Input(embeds),
                                 tape2.Input(adj), nullptr,
                                 &rollout.devices);
  EXPECT_FLOAT_EQ(tape.value(rollout.log_prob).at(0, 0),
                  tape2.value(scored.log_prob).at(0, 0));
}

// Every concrete agent must produce identical log-probabilities when
// scoring its own sampled decision — the invariant PPO depends on.
TEST(Agents, SampleScoreLogpConsistency) {
  auto graph = SmallGraph();
  const auto cluster = sim::MakeDefaultCluster();
  const auto dims = SmallDims();

  std::vector<std::unique_ptr<rl::PolicyAgent>> agents;
  agents.push_back(MakeEagleAgent(graph, cluster, dims, 13));
  agents.push_back(MakeHierarchicalPlanner(graph, cluster, dims, 13));
  partition::MetisOptions metis;
  metis.num_parts = dims.num_groups;
  agents.push_back(MakeFixedGrouperAgent(
      graph, cluster, partition::MetisPartition(graph, metis),
      PlacerKind::kSeq2Seq, AttentionVariant::kBefore, dims, 13, "metis"));
  agents.push_back(MakeFixedGrouperAgent(
      graph, cluster, partition::MetisPartition(graph, metis),
      PlacerKind::kGcn, AttentionVariant::kBefore, dims, 13, "gcn"));
  agents.push_back(MakePostAgent(graph, cluster, dims.num_groups, 13));

  support::Rng rng(14);
  for (auto& agent : agents) {
    const auto sample = agent->SampleDecision(rng);
    nn::Tape tape;
    const auto score = agent->ScoreDecision(tape, sample);
    EXPECT_NEAR(sample.logp,
                static_cast<double>(tape.value(score.logp).at(0, 0)),
                1e-3)
        << agent->name();
    // Entropy finite and non-negative.
    EXPECT_GE(tape.value(score.entropy).at(0, 0), 0.0f) << agent->name();
  }
}

TEST(Agents, ToPlacementRespectsConstraints) {
  auto graph = SmallGraph();
  const auto cluster = sim::MakeDefaultCluster();
  auto agent = MakeEagleAgent(graph, cluster, SmallDims(), 15);
  support::Rng rng(16);
  const auto sample = agent->SampleDecision(rng);
  const auto placement = agent->ToPlacement(sample);
  ASSERT_EQ(placement.num_ops(), graph.num_ops());
  for (graph::OpId i = 0; i < graph.num_ops(); ++i) {
    if (graph.op(i).cpu_only) {
      EXPECT_EQ(placement.device(i), cluster.FirstCpu());
    }
  }
}

TEST(Agents, FixedGrouperRequiresCoverage) {
  auto graph = SmallGraph();
  const auto cluster = sim::MakeDefaultCluster();
  EXPECT_THROW(MakeFixedGrouperAgent(graph, cluster, {0, 1, 2},
                                     PlacerKind::kSeq2Seq,
                                     AttentionVariant::kBefore, SmallDims(),
                                     1, "bad"),
               std::logic_error);
}

TEST(ExpertPolicies, SingleGpuPinsCpuOps) {
  auto graph = SmallGraph();
  const auto cluster = sim::MakeDefaultCluster();
  const auto placement = SingleGpuPlacement(graph, cluster);
  bool has_gpu_op = false;
  for (graph::OpId i = 0; i < graph.num_ops(); ++i) {
    if (graph.op(i).cpu_only) {
      EXPECT_EQ(placement.device(i), cluster.FirstCpu());
    } else {
      has_gpu_op |= placement.device(i) == 1;
    }
  }
  EXPECT_TRUE(has_gpu_op);
}

TEST(ExpertPolicies, GnmtExpertUsesAllGpus) {
  models::GnmtConfig config;
  config.seq_len = 6;
  config.hidden = 16;
  config.vocab = 200;
  config.batch = 4;
  auto graph = models::BuildGNMT(config);
  const auto cluster = sim::MakeDefaultCluster();
  const auto placement =
      HumanExpertPlacement(models::Benchmark::kGNMT, graph, cluster);
  ASSERT_TRUE(placement.has_value());
  const auto counts = placement->OpsPerDevice(cluster);
  for (auto gpu : cluster.Gpus()) {
    EXPECT_GT(counts[static_cast<std::size_t>(gpu)], 0) << "gpu " << gpu;
  }
}

TEST(ExpertPolicies, BertHasNoExpert) {
  models::BertConfig config;
  config.layers = 1;
  config.seq_len = 8;
  config.batch = 1;
  auto graph = models::BuildBertBase(config);
  const auto cluster = sim::MakeDefaultCluster();
  EXPECT_FALSE(HumanExpertPlacement(models::Benchmark::kBertBase, graph,
                                    cluster)
                   .has_value());
}

TEST(ExpertPolicies, InceptionExpertEqualsSingleGpu) {
  models::InceptionConfig config;
  auto graph = models::BuildInceptionV3(config);
  const auto cluster = sim::MakeDefaultCluster();
  const auto expert =
      HumanExpertPlacement(models::Benchmark::kInceptionV3, graph, cluster);
  ASSERT_TRUE(expert.has_value());
  EXPECT_EQ(expert->devices(), SingleGpuPlacement(graph, cluster).devices());
}

TEST(RunConfig, PaperScaleMatchesPaper) {
  const auto dims = AgentDims::PaperScale();
  EXPECT_EQ(dims.num_groups, 256);
  EXPECT_EQ(dims.grouper_hidden, 64);
  EXPECT_EQ(dims.placer_hidden, 512);
  EXPECT_STREQ(AttentionVariantName(AttentionVariant::kBefore), "before");
  EXPECT_STREQ(AttentionVariantName(AttentionVariant::kAfter), "after");
}

}  // namespace
}  // namespace eagle::core
