// Crash-safe training checkpoints: atomic snapshot files, full-state
// round-trips, and the kill-and-resume guarantee (a checkpointed, killed
// and resumed run reproduces the uninterrupted run bit-compatibly).
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/eagle_agent.h"
#include "core/env.h"
#include "models/synthetic.h"
#include "nn/serialize.h"
#include "rl/checkpoint.h"
#include "rl/trainer.h"
#include "rl/value_baseline.h"

namespace eagle::rl {
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

struct Fixture {
  graph::OpGraph graph = models::BuildParallelChains(2, 4, 1 << 14, 1e9);
  sim::ClusterSpec cluster = sim::MakeDefaultCluster();

  core::EnvironmentOptions EnvOptions() const {
    core::EnvironmentOptions options;
    options.faults = sim::FaultProfileFromString("0.15");
    return options;
  }

  std::unique_ptr<core::HierarchicalAgent> Agent(std::uint64_t seed) const {
    return core::MakeEagleAgent(graph, cluster, TinyDims(), seed);
  }

  TrainerOptions Options(int total_samples) const {
    TrainerOptions options;
    options.algorithm = Algorithm::kPpoCe;
    options.total_samples = total_samples;
    options.minibatch_size = 10;
    options.ce_interval = 15;
    options.checkpoint_interval = 10;
    options.seed = 5;
    return options;
  }
};

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string ParamBlob(core::PolicyAgent& agent) {
  std::ostringstream blob;
  nn::SaveParams(agent.params(), blob);
  return blob.str();
}

TEST(Checkpoint, KillAndResumeMatchesUninterrupted) {
  Fixture fix;

  // Reference: 40 samples straight through, no checkpointing.
  auto ref_agent = fix.Agent(21);
  core::PlacementEnvironment ref_env(fix.graph, fix.cluster,
                                     fix.EnvOptions());
  const auto reference = TrainAgent(*ref_agent, ref_env, fix.Options(40));

  // "Crash" after 20 samples: the run ends with a final snapshot, exactly
  // what a kill between minibatches leaves behind.
  const std::string dir = FreshDir("eagle_resume_test");
  auto killed_agent = fix.Agent(21);
  core::PlacementEnvironment killed_env(fix.graph, fix.cluster,
                                        fix.EnvOptions());
  auto killed_options = fix.Options(20);
  killed_options.checkpoint_dir = dir;
  killed_options.checkpoint_name = "kill";
  const auto killed =
      TrainAgent(*killed_agent, killed_env, killed_options);
  EXPECT_EQ(killed.total_samples, 20);
  const std::string path = CheckpointFilePath(dir, "kill");
  EXPECT_TRUE(std::filesystem::exists(path));
  // Atomic write: no half-written temp file survives.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // Resume in fresh objects (fresh process in real life) to 40 samples.
  auto resumed_agent = fix.Agent(21);
  core::PlacementEnvironment resumed_env(fix.graph, fix.cluster,
                                         fix.EnvOptions());
  auto resumed_options = fix.Options(40);
  resumed_options.checkpoint_dir = dir;
  resumed_options.checkpoint_name = "kill";
  resumed_options.resume = true;
  const auto resumed =
      TrainAgent(*resumed_agent, resumed_env, resumed_options);

  EXPECT_EQ(resumed.total_samples, reference.total_samples);
  EXPECT_EQ(resumed.invalid_samples, reference.invalid_samples);
  EXPECT_EQ(resumed.found_valid, reference.found_valid);
  EXPECT_DOUBLE_EQ(resumed.best_per_step_seconds,
                   reference.best_per_step_seconds);
  EXPECT_DOUBLE_EQ(resumed.total_virtual_hours,
                   reference.total_virtual_hours);
  EXPECT_DOUBLE_EQ(resumed.best_found_at_hours,
                   reference.best_found_at_hours);
  EXPECT_EQ(resumed.best_placement.devices(),
            reference.best_placement.devices());
  ASSERT_EQ(resumed.history.size(), reference.history.size());
  for (std::size_t i = 0; i < reference.history.size(); ++i) {
    EXPECT_DOUBLE_EQ(resumed.history[i].virtual_hours,
                     reference.history[i].virtual_hours);
    EXPECT_DOUBLE_EQ(resumed.history[i].best_so_far_seconds,
                     reference.history[i].best_so_far_seconds);
  }
  // Bit-compatible parameters, not just matching metrics.
  EXPECT_EQ(ParamBlob(*resumed_agent), ParamBlob(*ref_agent));

  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, ResumeWithoutSnapshotStartsFresh) {
  Fixture fix;
  auto plain_agent = fix.Agent(31);
  core::PlacementEnvironment plain_env(fix.graph, fix.cluster,
                                       fix.EnvOptions());
  const auto plain = TrainAgent(*plain_agent, plain_env, fix.Options(20));

  const std::string dir = FreshDir("eagle_resume_empty");
  auto agent = fix.Agent(31);
  core::PlacementEnvironment env(fix.graph, fix.cluster, fix.EnvOptions());
  auto options = fix.Options(20);
  options.checkpoint_dir = dir;
  options.resume = true;  // nothing there yet: falls back to fresh start
  const auto result = TrainAgent(*agent, env, options);
  EXPECT_EQ(result.total_samples, plain.total_samples);
  EXPECT_DOUBLE_EQ(result.best_per_step_seconds,
                   plain.best_per_step_seconds);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, DataRoundTrip) {
  Fixture fix;
  auto agent = fix.Agent(1);
  nn::Adam optimizer(agent->params());

  CheckpointData data;
  data.result.found_valid = true;
  data.result.best_per_step_seconds = 0.5;
  data.result.best_found_at_hours = 1.25;
  data.result.total_virtual_hours = 2.5;
  data.result.invalid_samples = 3;
  data.result.total_samples = 7;
  data.result.best_placement =
      sim::Placement::FromRaw({1, 2, 1, 3, 0, 2});
  HistoryPoint point;
  point.sample_index = 7;
  point.virtual_hours = 2.5;
  point.per_step_seconds = 0.6;
  point.best_so_far_seconds = 0.5;
  data.result.history = {point};
  data.rng_state = {11, 22, 33, 44};
  data.baseline_value = -0.75;
  data.baseline_initialized = true;
  core::Sample sample;
  sample.grouping = {0, 1, 1};
  sample.group_devices = {2, 4};
  sample.logp = -1.5;
  sample.num_decisions = 4;
  sample.valid = true;
  sample.per_step_seconds = 0.9;
  sample.reward = -0.7;
  sample.advantage = 0.1;
  data.pool = {sample};
  data.batch = {sample, sample};
  data.since_ce = 3;
  data.env_state = "opaque environment blob";

  const std::string dir = FreshDir("eagle_ckpt_roundtrip");
  const std::string path = CheckpointFilePath(dir, "trainer");
  ASSERT_TRUE(SaveCheckpoint(path, agent->params(), optimizer, data));

  auto restored_agent = fix.Agent(99);  // different init, same shapes
  nn::Adam restored_optimizer(restored_agent->params());
  CheckpointData restored;
  ASSERT_TRUE(LoadCheckpoint(path, restored_agent->params(),
                             restored_optimizer, &restored));
  EXPECT_EQ(ParamBlob(*restored_agent), ParamBlob(*agent));
  EXPECT_EQ(restored.result.total_samples, 7);
  EXPECT_EQ(restored.result.invalid_samples, 3);
  EXPECT_TRUE(restored.result.found_valid);
  EXPECT_DOUBLE_EQ(restored.result.best_per_step_seconds, 0.5);
  EXPECT_DOUBLE_EQ(restored.result.total_virtual_hours, 2.5);
  EXPECT_EQ(restored.result.best_placement.devices(),
            data.result.best_placement.devices());
  ASSERT_EQ(restored.result.history.size(), 1u);
  EXPECT_DOUBLE_EQ(restored.result.history[0].per_step_seconds, 0.6);
  EXPECT_EQ(restored.rng_state, data.rng_state);
  EXPECT_DOUBLE_EQ(restored.baseline_value, -0.75);
  EXPECT_TRUE(restored.baseline_initialized);
  ASSERT_EQ(restored.pool.size(), 1u);
  EXPECT_EQ(restored.pool[0].grouping, sample.grouping);
  EXPECT_EQ(restored.pool[0].group_devices, sample.group_devices);
  EXPECT_DOUBLE_EQ(restored.pool[0].logp, -1.5);
  EXPECT_EQ(restored.pool[0].num_decisions, 4);
  EXPECT_TRUE(restored.pool[0].valid);
  EXPECT_DOUBLE_EQ(restored.pool[0].reward, -0.7);
  EXPECT_DOUBLE_EQ(restored.pool[0].advantage, 0.1);
  ASSERT_EQ(restored.batch.size(), 2u);
  EXPECT_DOUBLE_EQ(restored.batch[1].per_step_seconds, 0.9);
  EXPECT_EQ(restored.since_ce, 3);
  EXPECT_EQ(restored.env_state, "opaque environment blob");
  EXPECT_TRUE(restored.critic_state.empty());
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, V1MagicStillLoads) {
  // The v2 format added Sample::eval_stream; a checkpoint with no stored
  // samples is byte-identical to v1 apart from the magic, so rewriting
  // the version byte yields a faithful v1 file the reader must accept.
  Fixture fix;
  auto agent = fix.Agent(4);
  nn::Adam optimizer(agent->params());
  CheckpointData data;
  data.result.total_samples = 12;
  data.rng_state = {1, 2, 3, 4};

  const std::string dir = FreshDir("eagle_ckpt_v1");
  const std::string path = CheckpointFilePath(dir, "trainer");
  ASSERT_TRUE(SaveCheckpoint(path, agent->params(), optimizer, data));
  {
    std::fstream io(path,
                    std::ios::binary | std::ios::in | std::ios::out);
    io.seekp(7);
    io.put('1');  // "EAGLCKP2" -> "EAGLCKP1"
  }
  CheckpointData restored;
  ASSERT_TRUE(LoadCheckpoint(path, agent->params(), optimizer, &restored));
  EXPECT_EQ(restored.result.total_samples, 12);
  EXPECT_EQ(restored.rng_state, data.rng_state);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, SampleEvalStreamRoundTrips) {
  Fixture fix;
  auto agent = fix.Agent(5);
  nn::Adam optimizer(agent->params());
  CheckpointData data;
  core::Sample sample;
  sample.grouping = {0, 1};
  sample.group_devices = {2, 3};
  sample.eval_stream = 0x0123456789abcdefULL;
  data.pool = {sample};

  const std::string dir = FreshDir("eagle_ckpt_stream");
  const std::string path = CheckpointFilePath(dir, "trainer");
  ASSERT_TRUE(SaveCheckpoint(path, agent->params(), optimizer, data));
  CheckpointData restored;
  ASSERT_TRUE(LoadCheckpoint(path, agent->params(), optimizer, &restored));
  ASSERT_EQ(restored.pool.size(), 1u);
  EXPECT_EQ(restored.pool[0].eval_stream, 0x0123456789abcdefULL);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, LoadMissingReturnsFalse) {
  Fixture fix;
  auto agent = fix.Agent(2);
  nn::Adam optimizer(agent->params());
  CheckpointData data;
  EXPECT_FALSE(LoadCheckpoint(::testing::TempDir() + "/eagle_no_such.ckpt",
                              agent->params(), optimizer, &data));
}

TEST(Checkpoint, CorruptOrTruncatedFileThrows) {
  Fixture fix;
  auto agent = fix.Agent(3);
  nn::Adam optimizer(agent->params());
  const std::string dir = FreshDir("eagle_ckpt_corrupt");
  std::filesystem::create_directories(dir);

  const std::string garbage = dir + "/garbage.ckpt";
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "this is not a checkpoint";
  }
  CheckpointData data;
  EXPECT_THROW(LoadCheckpoint(garbage, agent->params(), optimizer, &data),
               std::logic_error);

  // A good checkpoint cut short mid-file must be rejected, never
  // half-applied silently.
  const std::string path = CheckpointFilePath(dir, "trainer");
  CheckpointData full;
  full.result.total_samples = 5;
  ASSERT_TRUE(SaveCheckpoint(path, agent->params(), optimizer, full));
  const std::string bytes = ReadFile(path);
  WriteFile(path, bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW(LoadCheckpoint(path, agent->params(), optimizer, &data),
               std::logic_error);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Byte-level format pins. One fixed input touches every section of the
// file: a parameter Adam never stepped (no moment slot), Adam after one
// step, pool and batch samples with eval streams, a history holding an
// invalid (inf) point, a best placement, a fault-injected environment's
// state blob and a learned critic's blob.

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) hash = (hash ^ c) * 0x100000001b3ULL;
  return hash;
}

template <typename Save>
std::string Blob(const Save& save) {
  std::ostringstream out;
  save(out);
  return out.str();
}

constexpr nn::AdamOptions kGoldenAdam{.clip_norm = 0.0};
constexpr ValueBaselineOptions kGoldenCritic{.hidden = 3};

// Parameters with the golden shapes; values come from the file.
void CreateGoldenParams(nn::ParamStore& store) {
  store.Create("w", 2, 3);
  store.Create("frozen", 1, 2);
}

struct GoldenCheckpoint {
  nn::ParamStore store;
  nn::Adam adam{store, kGoldenAdam};
  CheckpointData data;

  GoldenCheckpoint() {
    nn::Parameter* w = store.Create("w", 2, 3);
    for (int i = 0; i < 6; ++i) {
      w->value.data()[i] = 0.25f * static_cast<float>(i - 2);
      w->grad.data()[i] = 0.5f - 0.125f * static_cast<float>(i);
    }
    adam.Step();
    // Created after the step, so Adam never touched it: no moment slot.
    store.Create("frozen", 1, 2)->value.at(0, 1) = 3.0f;

    const core::Sample good{{0, 1, 1, 0}, {2, 1}, -2.25, 6,
                            0x0123456789abcdefULL, true, 0.75, -0.5, 0.125};
    const core::Sample oom{{1, 0, 0, 1}, {2, 1}, -2.25, 6, 9, false, 0.75,
                           -7.5, 0.125};
    const double inf = std::numeric_limits<double>::infinity();
    data = CheckpointData{
        .result = {true, sim::Placement::FromRaw({2, 1, 1, 2}), 0.75, 0.5,
                   1.0, 1, 2, {{1, 0.5, 0.75, 0.75}, {2, 1.0, inf, 0.75}}},
        .rng_state = {1, 2, 3, 0xfedcba9876543210ULL},
        .baseline_value = -1.5,
        .baseline_initialized = true,
        .pool = {good, oom},
        .batch = {oom},
        .since_ce = 4};

    const graph::OpGraph graph =
        models::BuildParallelChains(2, 4, 1 << 14, 1e9);
    const sim::ClusterSpec cluster = sim::MakeDefaultCluster();
    core::EnvironmentOptions env_options;
    env_options.faults = sim::FaultProfileFromString("0.3");
    core::PlacementEnvironment env(graph, cluster, env_options);
    const auto placement =
        sim::Placement::AllOnDevice(graph, cluster, cluster.Gpus().front());
    support::Rng noise(3);
    for (int i = 0; i < 4; ++i) env.Evaluate(placement, &noise);
    data.env_state = Blob([&](auto& out) { env.SerializeState(out); });

    ValueBaseline critic(3, kGoldenCritic);
    critic.Update({good, oom});
    data.critic_state = Blob([&](auto& out) { critic.SaveState(out); });
  }

  std::string Write(const std::string& path) const {
    EXPECT_TRUE(SaveCheckpoint(path, store, adam, data));
    return ReadFile(path);
  }
};

TEST(Checkpoint, GoldenBytes) {
  const std::string dir = FreshDir("eagle_ckpt_golden");
  const std::string path = CheckpointFilePath(dir, "golden");
  const GoldenCheckpoint golden;
  const std::string bytes = golden.Write(path);
  EXPECT_EQ(golden.data.env_state.size(), 68u);
  // Captured when the layout was frozen: any byte of drift strands every
  // checkpoint already on disk.
  EXPECT_EQ(bytes.size(), 1013u);
  EXPECT_EQ(Fnv1a(bytes), 0xa5357335e61d93f8ULL) << std::hex << Fnv1a(bytes);

  // Load-then-save reproduces the file byte for byte.
  nn::ParamStore store;
  CreateGoldenParams(store);
  nn::Adam adam(store, kGoldenAdam);
  CheckpointData data;
  ASSERT_TRUE(LoadCheckpoint(path, store, adam, &data));
  ASSERT_TRUE(SaveCheckpoint(path, store, adam, data));
  EXPECT_EQ(ReadFile(path), bytes);

  // So do the two embedded blobs, through their owners' readers.
  const graph::OpGraph graph = models::BuildParallelChains(2, 4, 1 << 14, 1e9);
  const sim::ClusterSpec cluster = sim::MakeDefaultCluster();
  core::PlacementEnvironment env(graph, cluster);
  std::istringstream env_in(data.env_state);
  env.DeserializeState(env_in);
  EXPECT_EQ(Blob([&](auto& out) { env.SerializeState(out); }),
            golden.data.env_state);
  ValueBaseline critic(3, kGoldenCritic);
  std::istringstream critic_in(data.critic_state);
  critic.LoadState(critic_in);
  EXPECT_EQ(Blob([&](auto& out) { critic.SaveState(out); }),
            golden.data.critic_state);
  std::filesystem::remove_all(dir);
}

long PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// Every length field of the golden file, overstated to claim about a
// gibibyte of payload, must be rejected before that payload is
// allocated: the loader throws and peak RSS barely moves.
TEST(Checkpoint, OverstatedLengthsRejectedWithoutAllocating) {
  const std::string dir = FreshDir("eagle_ckpt_lengths");
  const std::string path = CheckpointFilePath(dir, "golden");
  const GoldenCheckpoint golden;
  const std::string bytes = golden.Write(path);

  // Walk the layout (rl/checkpoint.cpp) to each length field.
  const std::size_t params_at = 8;
  const std::size_t adam_at =
      params_at +
      Blob([&](auto& out) { nn::SaveParams(golden.store, out); }).size();
  const std::size_t placement_at =
      adam_at + Blob([&](auto& out) { golden.adam.SaveState(out); }).size() +
      32 + 9 + 33;
  const std::size_t history_at = placement_at + 4 + 4 * 4;
  const std::size_t pool_at = history_at + 4 + 2 * 28;
  const std::size_t sample_bytes = 4 + 4 * 4 + 4 + 2 * 4 + 8 + 4 + 8 + 1 + 24;
  const std::size_t critic_at =
      bytes.size() - 8 - golden.data.critic_state.size() - 8;
  const std::size_t env_at = critic_at - golden.data.env_state.size() - 8;

  constexpr std::uint64_t kGibRecords = (1u << 28) - 1;
  struct Patch {
    std::size_t offset;
    std::size_t width;     // 4: u32/i32 count, 8: u64 blob length
    std::uint64_t stored;  // sanity: what the golden file holds there
    std::uint64_t claimed;
  };
  const std::vector<std::pair<const char*, std::vector<Patch>>> fields = {
      {"param name", {{params_at + 12, 4, 1, 1u << 30}}},
      // 16384 x 16384 floats = 1 GiB.
      {"param rows x cols",
       {{params_at + 17, 4, 2, 1u << 14}, {params_at + 21, 4, 3, 1u << 14}}},
      {"adam slot name", {{adam_at + 12, 4, 1, 1u << 30}}},
      {"best placement", {{placement_at, 4, 4, kGibRecords}}},
      {"history count", {{history_at, 4, 2, kGibRecords}}},
      {"pool count", {{pool_at, 4, 2, kGibRecords}}},
      {"sample grouping", {{pool_at + 4, 4, 4, kGibRecords}}},
      {"sample devices", {{pool_at + 24, 4, 2, kGibRecords}}},
      {"batch count", {{pool_at + 4 + 2 * sample_bytes, 4, 1, kGibRecords}}},
      {"env blob", {{env_at, 8, golden.data.env_state.size(), 1ull << 30}}},
      {"critic blob",
       {{critic_at, 8, golden.data.critic_state.size(), 1ull << 30}}},
  };
  for (const auto& [field, patches] : fields) {
    SCOPED_TRACE(field);
    std::string corrupt = bytes;
    for (const Patch& patch : patches) {
      std::uint64_t stored = 0;  // little endian: the low bytes
      std::memcpy(&stored, corrupt.data() + patch.offset, patch.width);
      ASSERT_EQ(stored, patch.stored);
      std::memcpy(corrupt.data() + patch.offset, &patch.claimed, patch.width);
    }
    WriteFile(path, corrupt);
    nn::ParamStore store;
    CreateGoldenParams(store);
    nn::Adam adam(store, kGoldenAdam);
    CheckpointData data;
    const long before_kb = PeakRssKb();
    EXPECT_THROW(LoadCheckpoint(path, store, adam, &data), std::logic_error);
    EXPECT_LT(PeakRssKb() - before_kb, 64 * 1024);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace eagle::rl
