// core::EvalService — the parallel minibatch evaluation layer — and the
// determinism contract behind it: training with N evaluation threads is
// bit-identical to training serially (history, best placement, counters,
// parameters, checkpoints), at any thread count.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/eagle_agent.h"
#include "core/env.h"
#include "core/eval_service.h"
#include "models/synthetic.h"
#include "nn/serialize.h"
#include "rl/checkpoint.h"
#include "rl/trainer.h"
#include "support/thread_pool.h"

namespace eagle::core {
namespace {

core::AgentDims TinyDims() {
  core::AgentDims dims;
  dims.num_groups = 6;
  dims.grouper_hidden = 8;
  dims.placer_hidden = 16;
  dims.attn_dim = 8;
  dims.bridge_hidden = 8;
  dims.device_embed_dim = 4;
  return dims;
}

// Faults + measurement noise on, so every RNG stream the service manages
// (per-sample noise children, per-sample fault children, backoff jitter)
// is actually exercised by the determinism comparisons below.
struct Fixture {
  graph::OpGraph graph = models::BuildParallelChains(2, 4, 1 << 14, 1e9);
  sim::ClusterSpec cluster = sim::MakeDefaultCluster();

  EnvironmentOptions EnvOptions() const {
    EnvironmentOptions options;
    options.faults = sim::FaultProfileFromString("0.15");
    return options;
  }

  std::unique_ptr<HierarchicalAgent> Agent(std::uint64_t seed) const {
    return MakeEagleAgent(graph, cluster, TinyDims(), seed);
  }

  rl::TrainerOptions Options(int total_samples) const {
    rl::TrainerOptions options;
    options.algorithm = rl::Algorithm::kPpoCe;
    options.total_samples = total_samples;
    options.minibatch_size = 10;
    options.ce_interval = 15;
    options.seed = 5;
    return options;
  }
};

std::string ParamBlob(rl::PolicyAgent& agent) {
  std::ostringstream blob;
  nn::SaveParams(agent.params(), blob);
  return blob.str();
}

struct RunOutput {
  rl::TrainResult result;
  std::string params;
  int attempts = 0;
  int retries = 0;
  int exhausted = 0;
  double backoff_seconds = 0.0;
};

// One full training run with a fresh agent/environment; threads < 0
// means "no evaluator" — the trainer's inline serial path.
RunOutput RunTraining(const Fixture& fix, int threads, int total_samples) {
  auto agent = fix.Agent(21);
  PlacementEnvironment env(fix.graph, fix.cluster, fix.EnvOptions());
  auto options = fix.Options(total_samples);
  std::unique_ptr<EvalService> service;
  if (threads >= 0) {
    service = std::make_unique<EvalService>(env, threads);
    options.evaluator = service.get();
  }
  RunOutput out;
  out.result = rl::TrainAgent(*agent, env, options);
  out.params = ParamBlob(*agent);
  out.attempts = env.attempts();
  out.retries = env.retries();
  out.exhausted = env.exhausted_evaluations();
  out.backoff_seconds = env.backoff_seconds_total();
  return out;
}

void ExpectBitIdentical(const RunOutput& a, const RunOutput& b,
                        const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.result.total_samples, b.result.total_samples);
  EXPECT_EQ(a.result.invalid_samples, b.result.invalid_samples);
  EXPECT_EQ(a.result.found_valid, b.result.found_valid);
  // Exact double equality throughout: "equivalent up to rounding" would
  // mean thread scheduling leaked into results.
  EXPECT_EQ(a.result.best_per_step_seconds, b.result.best_per_step_seconds);
  EXPECT_EQ(a.result.best_found_at_hours, b.result.best_found_at_hours);
  EXPECT_EQ(a.result.total_virtual_hours, b.result.total_virtual_hours);
  EXPECT_EQ(a.result.best_placement.devices(),
            b.result.best_placement.devices());
  ASSERT_EQ(a.result.history.size(), b.result.history.size());
  for (std::size_t i = 0; i < a.result.history.size(); ++i) {
    EXPECT_EQ(a.result.history[i].sample_index,
              b.result.history[i].sample_index);
    EXPECT_EQ(a.result.history[i].virtual_hours,
              b.result.history[i].virtual_hours);
    EXPECT_EQ(a.result.history[i].per_step_seconds,
              b.result.history[i].per_step_seconds);
    EXPECT_EQ(a.result.history[i].best_so_far_seconds,
              b.result.history[i].best_so_far_seconds);
  }
  EXPECT_EQ(a.params, b.params);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.exhausted, b.exhausted);
  EXPECT_EQ(a.backoff_seconds, b.backoff_seconds);
}

TEST(EvalService, TrainingBitIdenticalAcrossThreadCounts) {
  Fixture fix;
  const auto inline_serial = RunTraining(fix, -1, 40);
  const auto one_thread = RunTraining(fix, 1, 40);
  const auto two_threads = RunTraining(fix, 2, 40);
  const auto eight_threads = RunTraining(fix, 8, 40);
  ExpectBitIdentical(inline_serial, one_thread, "inline vs 1 thread");
  ExpectBitIdentical(one_thread, two_threads, "1 vs 2 threads");
  ExpectBitIdentical(one_thread, eight_threads, "1 vs 8 threads");
}

// The determinism contract extends to what lands on disk: a checkpointed
// run must write byte-for-byte the same checkpoint file at any thread
// count. This pins the whole serialized state — parameters, Adam slots,
// RNG streams, env fault counters — against scheduling leaks from the
// pooled simulator workspaces the evaluation threads now lease.
TEST(EvalService, CheckpointBytesIdenticalAcrossThreadCounts) {
  Fixture fix;

  const auto run_checkpointed = [&](int threads, const std::string& tag) {
    const std::string dir = ::testing::TempDir() + "/eagle_ckpt_bytes_" + tag;
    std::filesystem::remove_all(dir);
    auto agent = fix.Agent(21);
    PlacementEnvironment env(fix.graph, fix.cluster, fix.EnvOptions());
    EvalService service(env, threads);
    auto options = fix.Options(40);
    options.evaluator = &service;
    options.checkpoint_dir = dir;
    options.checkpoint_name = "bytes";
    options.checkpoint_interval = 10;
    rl::TrainAgent(*agent, env, options);

    std::ifstream in(rl::CheckpointFilePath(dir, "bytes"),
                     std::ios::binary);
    EXPECT_TRUE(in.good());
    std::ostringstream bytes;
    bytes << in.rdbuf();
    std::filesystem::remove_all(dir);
    return bytes.str();
  };

  const std::string one_thread = run_checkpointed(1, "t1");
  const std::string eight_threads = run_checkpointed(8, "t8");
  EXPECT_FALSE(one_thread.empty());
  EXPECT_EQ(one_thread, eight_threads);
}

TEST(EvalService, BatchMatchesSerialEvaluateExactly) {
  Fixture fix;
  auto agent = fix.Agent(3);
  support::Rng sampler(4);

  std::vector<sim::Placement> placements;
  for (int i = 0; i < 12; ++i) {
    placements.push_back(agent->ToPlacement(agent->SampleDecision(sampler)));
  }
  // Duplicate placements inside one batch must evaluate exactly as they
  // do in the interleaved serial run.
  placements.push_back(placements[0]);
  placements.push_back(placements[5]);

  auto make_rngs = [&]() {
    std::vector<support::Rng> rngs;
    for (std::size_t i = 0; i < placements.size(); ++i) {
      rngs.push_back(sampler.Split(i));
    }
    return rngs;
  };

  PlacementEnvironment serial_env(fix.graph, fix.cluster, fix.EnvOptions());
  auto serial_rngs = make_rngs();
  std::vector<sim::EvalResult> serial_results;
  for (std::size_t i = 0; i < placements.size(); ++i) {
    serial_results.push_back(
        serial_env.Evaluate(placements[i], &serial_rngs[i]));
  }

  PlacementEnvironment pool_env(fix.graph, fix.cluster, fix.EnvOptions());
  EvalService service(pool_env, 4);
  auto pool_rngs = make_rngs();
  const auto pool_results = service.EvaluateBatch(placements, pool_rngs);

  ASSERT_EQ(pool_results.size(), serial_results.size());
  for (std::size_t i = 0; i < serial_results.size(); ++i) {
    EXPECT_EQ(pool_results[i].valid, serial_results[i].valid);
    EXPECT_EQ(pool_results[i].per_step_seconds,
              serial_results[i].per_step_seconds);
    EXPECT_EQ(pool_results[i].true_per_step_seconds,
              serial_results[i].true_per_step_seconds);
    EXPECT_EQ(pool_results[i].measurement_cost_seconds,
              serial_results[i].measurement_cost_seconds);
    EXPECT_EQ(pool_results[i].attempts, serial_results[i].attempts);
  }
  EXPECT_EQ(pool_env.evaluations(), serial_env.evaluations());
  EXPECT_EQ(pool_env.attempts(), serial_env.attempts());
  EXPECT_EQ(pool_env.retries(), serial_env.retries());
  EXPECT_EQ(pool_env.backoff_seconds_total(),
            serial_env.backoff_seconds_total());
}

TEST(EvalService, KillAndResumeThroughParallelPath) {
  Fixture fix;

  // Reference: 40 samples straight through on 4 threads.
  const auto reference = RunTraining(fix, 4, 40);

  const std::string dir = ::testing::TempDir() + "/eagle_parallel_resume";
  std::filesystem::remove_all(dir);

  // "Crash" after 20 samples (the run's final snapshot is exactly what a
  // kill between minibatches leaves behind), then resume to 40 — all
  // through the 4-thread service.
  {
    auto agent = fix.Agent(21);
    PlacementEnvironment env(fix.graph, fix.cluster, fix.EnvOptions());
    EvalService service(env, 4);
    auto options = fix.Options(20);
    options.evaluator = &service;
    options.checkpoint_dir = dir;
    options.checkpoint_name = "kill";
    options.checkpoint_interval = 10;
    const auto killed = rl::TrainAgent(*agent, env, options);
    EXPECT_EQ(killed.total_samples, 20);
  }
  auto resumed_agent = fix.Agent(21);
  PlacementEnvironment resumed_env(fix.graph, fix.cluster, fix.EnvOptions());
  EvalService resumed_service(resumed_env, 4);
  auto resumed_options = fix.Options(40);
  resumed_options.evaluator = &resumed_service;
  resumed_options.checkpoint_dir = dir;
  resumed_options.checkpoint_name = "kill";
  resumed_options.checkpoint_interval = 10;
  resumed_options.resume = true;
  const auto resumed =
      rl::TrainAgent(*resumed_agent, resumed_env, resumed_options);

  EXPECT_EQ(resumed.total_samples, reference.result.total_samples);
  EXPECT_EQ(resumed.invalid_samples, reference.result.invalid_samples);
  EXPECT_EQ(resumed.best_per_step_seconds,
            reference.result.best_per_step_seconds);
  EXPECT_EQ(resumed.total_virtual_hours,
            reference.result.total_virtual_hours);
  EXPECT_EQ(resumed.best_placement.devices(),
            reference.result.best_placement.devices());
  ASSERT_EQ(resumed.history.size(), reference.result.history.size());
  for (std::size_t i = 0; i < resumed.history.size(); ++i) {
    EXPECT_EQ(resumed.history[i].virtual_hours,
              reference.result.history[i].virtual_hours);
    EXPECT_EQ(resumed.history[i].per_step_seconds,
              reference.result.history[i].per_step_seconds);
  }
  EXPECT_EQ(ParamBlob(*resumed_agent), reference.params);
  std::filesystem::remove_all(dir);
}

// A resumed run must also match when the thread count CHANGES across the
// kill — the checkpoint encodes streams, not scheduling.
TEST(EvalService, ResumeWithDifferentThreadCountStillMatches) {
  Fixture fix;
  const auto reference = RunTraining(fix, 1, 30);

  const std::string dir = ::testing::TempDir() + "/eagle_thread_switch";
  std::filesystem::remove_all(dir);
  {
    auto agent = fix.Agent(21);
    PlacementEnvironment env(fix.graph, fix.cluster, fix.EnvOptions());
    EvalService service(env, 8);
    auto options = fix.Options(20);
    options.evaluator = &service;
    options.checkpoint_dir = dir;
    options.checkpoint_name = "switch";
    rl::TrainAgent(*agent, env, options);
  }
  auto agent = fix.Agent(21);
  PlacementEnvironment env(fix.graph, fix.cluster, fix.EnvOptions());
  EvalService service(env, 2);
  auto options = fix.Options(30);
  options.evaluator = &service;
  options.checkpoint_dir = dir;
  options.checkpoint_name = "switch";
  options.resume = true;
  const auto resumed = rl::TrainAgent(*agent, env, options);

  EXPECT_EQ(resumed.total_samples, reference.result.total_samples);
  EXPECT_EQ(resumed.best_per_step_seconds,
            reference.result.best_per_step_seconds);
  EXPECT_EQ(resumed.total_virtual_hours,
            reference.result.total_virtual_hours);
  EXPECT_EQ(ParamBlob(*agent), reference.params);
  std::filesystem::remove_all(dir);
}

// Concurrency stress for TSan: hammer one environment through a wide
// service with duplicate-heavy batches so the simulator workspaces,
// counters and fault stream all see real contention.
TEST(EvalService, ConcurrentStress) {
  Fixture fix;
  PlacementEnvironment env(fix.graph, fix.cluster, fix.EnvOptions());
  EvalService service(env, 8);
  auto agent = fix.Agent(7);
  support::Rng sampler(8);

  std::vector<sim::Placement> distinct;
  for (int i = 0; i < 24; ++i) {
    distinct.push_back(agent->ToPlacement(agent->SampleDecision(sampler)));
  }
  for (int round = 0; round < 8; ++round) {
    std::vector<sim::Placement> batch;
    std::vector<support::Rng> rngs;
    for (int i = 0; i < 48; ++i) {
      batch.push_back(distinct[static_cast<std::size_t>(
          sampler.NextBelow(distinct.size()))]);
      rngs.push_back(sampler.Split(static_cast<std::uint64_t>(i)));
    }
    const auto results = service.EvaluateBatch(batch, rngs);
    ASSERT_EQ(results.size(), batch.size());
  }
  EXPECT_EQ(env.evaluations(), 8 * 48);
}

}  // namespace
}  // namespace eagle::core
