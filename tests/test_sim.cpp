#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "models/fuzz_corpus.h"
#include "models/synthetic.h"
#include "models/zoo.h"
#include "sim/cost_model.h"
#include "sim/measurement.h"
#include "sim/memory_model.h"
#include "sim/naive_ref.h"
#include "sim/placement.h"
#include "sim/simulator.h"
#include "support/rng.h"

namespace eagle::sim {
namespace {

using graph::OpDef;
using graph::OpGraph;
using graph::OpType;
using graph::TensorShape;

ClusterSpec TwoGpuCluster() {
  ClusterOptions options;
  options.num_gpus = 2;
  return MakeDefaultCluster(options);
}

std::vector<DeviceId> RandomDevices(const OpGraph& g,
                                    const ClusterSpec& cluster,
                                    support::Rng& rng) {
  std::vector<DeviceId> devices(static_cast<std::size_t>(g.num_ops()));
  for (auto& d : devices) {
    d = static_cast<DeviceId>(
        rng.NextBelow(static_cast<std::uint64_t>(cluster.num_devices())));
  }
  return devices;
}

TEST(Cluster, DefaultShape) {
  const auto cluster = MakeDefaultCluster();
  EXPECT_EQ(cluster.num_devices(), 5);  // CPU + 4 GPUs
  EXPECT_EQ(cluster.FirstCpu(), 0);
  EXPECT_EQ(cluster.Gpus().size(), 4u);
  EXPECT_EQ(cluster.device(0).kind, DeviceKind::kCPU);
}

TEST(Cluster, ScaledMemory) {
  const auto half = MakeScaledCluster(0.5).value();
  const auto full = MakeDefaultCluster();
  EXPECT_EQ(half.device(1).memory_bytes, full.device(1).memory_bytes / 2);
}

TEST(CostModel, MonotonicInFlops) {
  const auto cluster = MakeDefaultCluster();
  CostModel cost(cluster);
  OpDef small, big;
  small.flops = 1e6;
  big.flops = 1e9;
  small.output_shape = big.output_shape = TensorShape{1};
  EXPECT_LT(cost.ComputeSeconds(small, 1), cost.ComputeSeconds(big, 1));
}

TEST(CostModel, GpuFasterForHeavyOps) {
  const auto cluster = MakeDefaultCluster();
  CostModel cost(cluster);
  OpDef heavy;
  heavy.flops = 1e10;
  heavy.output_shape = TensorShape{1024};
  EXPECT_LT(cost.ComputeSeconds(heavy, 1), cost.ComputeSeconds(heavy, 0));
}

TEST(CostModel, CpuFasterForTinyOps) {
  // The effect the paper reports on Inception-V3: "some operations are
  // actually running faster on the CPU devices".
  const auto cluster = MakeDefaultCluster();
  CostModel cost(cluster);
  OpDef tiny;
  tiny.flops = 1e3;
  tiny.output_shape = TensorShape{8};
  EXPECT_LT(cost.ComputeSeconds(tiny, 0), cost.ComputeSeconds(tiny, 1));
}

TEST(CostModel, TransferZeroSameDevice) {
  const auto cluster = MakeDefaultCluster();
  CostModel cost(cluster);
  EXPECT_DOUBLE_EQ(cost.TransferSeconds(1, 1, 1 << 20), 0.0);
  EXPECT_GT(cost.TransferSeconds(1, 2, 1 << 20), 0.0);
}

TEST(CostModel, TransferScalesWithBytes) {
  const auto cluster = MakeDefaultCluster();
  CostModel cost(cluster);
  const double small = cost.TransferSeconds(1, 2, 1 << 10);
  const double large = cost.TransferSeconds(1, 2, 1 << 30);
  EXPECT_GT(large, small * 100);
}

TEST(Placement, CpuOnlyPinned) {
  OpGraph g;
  OpDef a;
  a.name = "lookup";
  a.type = OpType::kEmbeddingLookup;
  a.cpu_only = true;
  a.output_shape = TensorShape{4};
  g.AddOp(a);
  const auto cluster = MakeDefaultCluster();
  auto placement = Placement::AllOnDevice(g, cluster, 2);
  EXPECT_EQ(placement.device(0), cluster.FirstCpu());
}

TEST(Placement, ColocationCollapsesToLeader) {
  OpGraph g;
  for (int i = 0; i < 3; ++i) {
    OpDef op;
    op.name = "n" + std::to_string(i);
    op.output_shape = TensorShape{4};
    op.colocation_group = i < 2 ? 0 : -1;
    g.AddOp(op);
  }
  const auto cluster = MakeDefaultCluster();
  Placement placement(g, {1, 3, 2});
  placement.Normalize(g, cluster);
  EXPECT_EQ(placement.device(1), placement.device(0));  // follows leader
  EXPECT_EQ(placement.device(2), 2);                    // untouched
}

TEST(Placement, CpuOnlyDragsColocationGroup) {
  OpGraph g;
  OpDef pinned;
  pinned.name = "pinned";
  pinned.cpu_only = true;
  pinned.colocation_group = 0;
  pinned.output_shape = TensorShape{4};
  g.AddOp(pinned);
  OpDef friend_op;
  friend_op.name = "friend";
  friend_op.colocation_group = 0;
  friend_op.output_shape = TensorShape{4};
  g.AddOp(friend_op);
  const auto cluster = MakeDefaultCluster();
  Placement placement(g, {1, 2});
  placement.Normalize(g, cluster);
  EXPECT_EQ(placement.device(0), cluster.FirstCpu());
  EXPECT_EQ(placement.device(1), cluster.FirstCpu());
}

TEST(Simulator, ChainSerializes) {
  // On one device a chain's step time is the sum of its op times.
  OpGraph g = models::BuildChain(10, 1 << 10, 1e9);
  const auto cluster = TwoGpuCluster();
  ExecutionSimulator simulator(g, cluster);
  const auto result =
      simulator.Run(Placement::AllOnDevice(g, cluster, 1));
  CostModel cost(cluster);
  double expected = 0.0;
  for (graph::OpId i = 0; i < g.num_ops(); ++i) {
    expected += cost.ComputeSeconds(g.op(i), 1);
  }
  EXPECT_NEAR(result.step_seconds, expected, 1e-9);
  EXPECT_FALSE(result.oom);
}

TEST(Simulator, ParallelChainsBenefitFromTwoGpus) {
  OpGraph g = models::BuildParallelChains(2, 12, 1 << 10, 5e9);
  const auto cluster = TwoGpuCluster();
  ExecutionSimulator simulator(g, cluster);
  const auto single = simulator.Run(Placement::AllOnDevice(g, cluster, 1));

  // Chain 0 on GPU1, chain 1 on GPU2.
  std::vector<DeviceId> devices(static_cast<std::size_t>(g.num_ops()), 1);
  for (graph::OpId i = 0; i < g.num_ops(); ++i) {
    if (g.op(i).layer == "chain1") devices[static_cast<std::size_t>(i)] = 2;
  }
  Placement split(g, devices);
  split.Normalize(g, cluster);
  const auto parallel = simulator.Run(split);
  EXPECT_LT(parallel.step_seconds, single.step_seconds * 0.7);
}

TEST(Simulator, StepAtLeastBusiestDevice) {
  support::Rng rng(5);
  models::RandomDagConfig config;
  config.layers = 8;
  config.width = 6;
  OpGraph g = models::BuildRandomDag(config, rng);
  const auto cluster = MakeDefaultCluster();
  ExecutionSimulator simulator(g, cluster);
  std::vector<DeviceId> devices(static_cast<std::size_t>(g.num_ops()));
  for (auto& d : devices) d = static_cast<DeviceId>(rng.NextBelow(5));
  Placement placement(g, devices);
  placement.Normalize(g, cluster);
  const auto result = simulator.Run(placement);
  for (double busy : result.device_busy_seconds) {
    EXPECT_GE(result.step_seconds + 1e-12, busy);
  }
}

TEST(Simulator, TransferDedup) {
  // A variable read by many consumers on one remote device is shipped
  // once per step (TF send/recv dedup), not once per edge.
  OpGraph g;
  OpDef var;
  var.name = "w";
  var.type = OpType::kVariable;
  var.output_shape = TensorShape{1};
  var.param_bytes = 64 << 20;
  g.AddOp(var);
  for (int i = 0; i < 10; ++i) {
    OpDef use;
    use.name = "mm" + std::to_string(i);
    use.type = OpType::kMatMul;
    use.flops = 1e6;
    use.output_shape = TensorShape{16};
    g.AddOp(use);
    g.AddEdge(0, 1 + i, 64 << 20);
  }
  const auto cluster = TwoGpuCluster();
  ExecutionSimulator simulator(g, cluster);
  std::vector<DeviceId> devices(11, 2);
  devices[0] = 1;  // weights live on GPU1, consumers on GPU2
  Placement placement(g, devices);
  placement.Normalize(g, cluster);
  const auto result = simulator.Run(placement);
  EXPECT_EQ(result.num_transfers, 1);
  EXPECT_EQ(result.transfer_bytes_total, 64 << 20);
}

TEST(Simulator, CrossDeviceChainPaysTransfers) {
  OpGraph g = models::BuildChain(6, 1 << 20, 1e8);
  const auto cluster = TwoGpuCluster();
  ExecutionSimulator simulator(g, cluster);
  const auto local = simulator.Run(Placement::AllOnDevice(g, cluster, 1));
  // Alternate devices along the chain: every edge crosses.
  std::vector<DeviceId> devices(static_cast<std::size_t>(g.num_ops()));
  for (graph::OpId i = 0; i < g.num_ops(); ++i) {
    devices[static_cast<std::size_t>(i)] = 1 + (i % 2);
  }
  Placement alternating(g, devices);
  alternating.Normalize(g, cluster);
  const auto remote = simulator.Run(alternating);
  EXPECT_GT(remote.step_seconds, local.step_seconds);
  EXPECT_EQ(remote.num_transfers, g.num_edges());
}

TEST(MemoryModel, PeakSweep) {
  std::vector<LiveInterval> intervals{
      {0.0, 2.0, 100}, {1.0, 3.0, 50}, {2.5, 4.0, 75}};
  EXPECT_EQ(PeakLiveBytes(intervals), 150);
}

TEST(MemoryModel, FreeBeforeAllocAtSameTime) {
  std::vector<LiveInterval> intervals{{0.0, 1.0, 100}, {1.0, 2.0, 100}};
  EXPECT_EQ(PeakLiveBytes(intervals), 100);
}

TEST(MemoryModel, EmptyAndDegenerate) {
  EXPECT_EQ(PeakLiveBytes({}), 0);
  EXPECT_EQ(PeakLiveBytes({{1.0, 1.0, 100}}), 0);  // zero-length interval
}

TEST(Simulator, OomDetected) {
  OpGraph g;
  OpDef big;
  big.name = "big";
  big.type = OpType::kVariable;
  big.output_shape = TensorShape{1};
  big.param_bytes = 64LL << 30;  // 64 GB of parameters
  g.AddOp(big);
  const auto cluster = TwoGpuCluster();
  ExecutionSimulator simulator(g, cluster);
  const auto result = simulator.Run(Placement::AllOnDevice(g, cluster, 1));
  EXPECT_TRUE(result.oom);
  EXPECT_EQ(result.oom_device, 1);
  // The CPU (120 GB) can hold it.
  const auto on_cpu = simulator.Run(Placement::AllOnDevice(g, cluster, 0));
  EXPECT_FALSE(on_cpu.oom);
}

TEST(Simulator, MemoryTrackingCanBeDisabled) {
  OpGraph g;
  OpDef big;
  big.name = "big";
  big.type = OpType::kVariable;
  big.output_shape = TensorShape{1};
  big.param_bytes = 64LL << 30;
  g.AddOp(big);
  const auto cluster = TwoGpuCluster();
  SimulatorOptions options;
  options.track_memory = false;
  ExecutionSimulator simulator(g, cluster, options);
  EXPECT_FALSE(simulator.Run(Placement::AllOnDevice(g, cluster, 1)).oom);
}

// Exact StepResult equality (doubles compared with ==, not tolerance):
// the workspace simulator must reproduce the frozen reference bit for
// bit, since both fold the same costs in the same order.
void ExpectStepResultsIdentical(const StepResult& got,
                                const StepResult& want) {
  EXPECT_EQ(got.oom, want.oom);
  EXPECT_EQ(got.oom_device, want.oom_device);
  EXPECT_EQ(got.step_seconds, want.step_seconds);
  EXPECT_EQ(got.device_busy_seconds, want.device_busy_seconds);
  EXPECT_EQ(got.device_peak_bytes, want.device_peak_bytes);
  EXPECT_EQ(got.device_param_bytes, want.device_param_bytes);
  EXPECT_EQ(got.transfer_seconds_total, want.transfer_seconds_total);
  EXPECT_EQ(got.transfer_bytes_total, want.transfer_bytes_total);
  EXPECT_EQ(got.num_transfers, want.num_transfers);
  ASSERT_EQ(got.schedule.size(), want.schedule.size());
  for (std::size_t i = 0; i < got.schedule.size(); ++i) {
    EXPECT_EQ(got.schedule[i].op, want.schedule[i].op);
    EXPECT_EQ(got.schedule[i].device, want.schedule[i].device);
    EXPECT_EQ(got.schedule[i].start_seconds, want.schedule[i].start_seconds);
    EXPECT_EQ(got.schedule[i].end_seconds, want.schedule[i].end_seconds);
  }
  ASSERT_EQ(got.transfers.size(), want.transfers.size());
  for (std::size_t i = 0; i < got.transfers.size(); ++i) {
    EXPECT_EQ(got.transfers[i].producer, want.transfers[i].producer);
    EXPECT_EQ(got.transfers[i].src, want.transfers[i].src);
    EXPECT_EQ(got.transfers[i].dst, want.transfers[i].dst);
    EXPECT_EQ(got.transfers[i].bytes, want.transfers[i].bytes);
    EXPECT_EQ(got.transfers[i].start_seconds, want.transfers[i].start_seconds);
    EXPECT_EQ(got.transfers[i].end_seconds, want.transfers[i].end_seconds);
  }
}

// One producer feeding many consumers: placed across the 2node8 tier
// boundary, the deduped IB transfers all queue on the producer node's
// single shared NIC egress channel. Half the consumers share a tensor
// size (dedup per destination device), half are distinct.
OpGraph SharedNicFanOutGraph() {
  constexpr int kConsumers = 24;
  OpGraph g;
  OpDef producer;
  producer.name = "producer";
  producer.type = OpType::kMatMul;
  producer.flops = 5e7;
  producer.output_shape = TensorShape{256};
  g.AddOp(producer);
  for (int i = 0; i < kConsumers; ++i) {
    OpDef use;
    use.name = "use" + std::to_string(i);
    use.type = OpType::kMatMul;
    use.flops = 5e6;
    use.output_shape = TensorShape{64};
    g.AddOp(use);
    g.AddEdge(0, i + 1, (i % 2 == 0) ? 4096 : 4096 + i * 64);
  }
  return g;
}

TEST(Simulator, MatchesFrozenReferenceOnModelZoo) {
  // The zoo graphs plus two adversarial ones (a shared-NIC fan-out and a
  // seeded fuzz-corpus graph), on the homogeneous box and both
  // hierarchical topologies: shared PCIe-root, shared NIC-egress and
  // per-pair NVLink channels with heterogeneous per-device rates.
  models::ZooOptions zoo;
  zoo.reduced = true;
  std::vector<std::pair<std::string, OpGraph>> graphs;
  for (const auto benchmark : models::AllBenchmarks()) {
    graphs.emplace_back(models::BenchmarkName(benchmark),
                        models::BuildBenchmark(benchmark, zoo));
  }
  graphs.emplace_back("shared_nic_fan_out", SharedNicFanOutGraph());
  support::Rng graph_rng(71);
  models::FuzzGraphConfig fuzz;
  fuzz.num_ops = 200;
  fuzz.width = 10;
  graphs.emplace_back("fuzz200", models::BuildFuzzGraph(fuzz, graph_rng));

  const std::pair<std::string, ClusterSpec> clusters[] = {
      {"default", MakeDefaultCluster()},
      {"2node8", MakeTwoNodeNvlinkIbCluster()},
      {"mixed", MakeMixedSpeedCluster()}};
  SimulatorOptions options;
  options.record_schedule = true;
  for (const auto& [cluster_name, cluster] : clusters) {
    for (const auto& [graph_name, g] : graphs) {
      SCOPED_TRACE(cluster_name + "/" + graph_name);
      ExecutionSimulator simulator(g, cluster, options);
      support::Rng rng(17);
      // Several runs on one simulator instance: the second and third
      // reuse the pooled workspace, so any stale epoch-stamped state
      // shows up as a mismatch against the allocate-fresh-every-time
      // reference.
      for (int round = 0; round < 3; ++round) {
        Placement placement(g, RandomDevices(g, cluster, rng));
        placement.Normalize(g, cluster);
        ExpectStepResultsIdentical(
            simulator.Run(placement),
            naive::RunReference(g, cluster, options, placement, nullptr,
                                /*record_schedule=*/true));
      }
    }
  }
}

TEST(Simulator, MatchesFrozenReferenceUnderFaults) {
  const auto cluster = MakeDefaultCluster();
  const OpGraph g =
      models::BuildBenchmark(models::Benchmark::kInceptionV3, {true, true});
  SimulatorOptions options;
  options.record_schedule = true;
  ExecutionSimulator simulator(g, cluster, options);
  FaultDraw faults;
  faults.device_down.assign(static_cast<std::size_t>(cluster.num_devices()),
                            false);
  faults.device_compute_scale.assign(
      static_cast<std::size_t>(cluster.num_devices()), 1.0);
  faults.device_compute_scale[2] = 2.5;  // straggler GPU
  faults.link_scale.assign(
      static_cast<std::size_t>(cluster.num_link_channels()), 1.0);
  faults.link_scale[0] = 3.0;  // degraded channel
  support::Rng rng(23);
  std::vector<DeviceId> devices(static_cast<std::size_t>(g.num_ops()));
  for (auto& d : devices) {
    d = static_cast<DeviceId>(
        rng.NextBelow(static_cast<std::uint64_t>(cluster.num_devices())));
  }
  Placement placement(g, devices);
  placement.Normalize(g, cluster);
  ExpectStepResultsIdentical(
      simulator.Run(placement, &faults),
      naive::RunReference(g, cluster, options, placement, &faults,
                          /*record_schedule=*/true));
}

TEST(Simulator, TransferDedupKeysOnExactBytes) {
  // Two transfers from one producer to the same device with different
  // byte sizes are distinct physical sends. The sizes below collide in
  // the retired 32-bit byte-size hash (1000·K and 2971216073·K share
  // their top 32 bits for K = 0x9E3779B97F4A7C15), which silently merged
  // them into one transfer; the exact (producer, dst, bytes) key keeps
  // both.
  constexpr std::int64_t kSmall = 1000;
  constexpr std::int64_t kLarge = 2971216073;  // kSmall + 2971215073
  OpGraph g;
  OpDef producer;
  producer.name = "producer";
  producer.type = OpType::kMatMul;
  producer.flops = 1e6;
  producer.output_shape = TensorShape{16};
  g.AddOp(producer);
  for (int i = 0; i < 2; ++i) {
    OpDef use;
    use.name = "use" + std::to_string(i);
    use.type = OpType::kMatMul;
    use.flops = 1e6;
    use.output_shape = TensorShape{16};
    g.AddOp(use);
  }
  g.AddEdge(0, 1, kSmall);
  g.AddEdge(0, 2, kLarge);
  const auto cluster = TwoGpuCluster();
  SimulatorOptions options;
  options.track_memory = false;  // the 2.8 GB tensor is not the point
  ExecutionSimulator simulator(g, cluster, options);
  std::vector<DeviceId> devices{1, 2, 2};
  Placement placement(g, devices);
  placement.Normalize(g, cluster);

  const auto result = simulator.Run(placement);
  EXPECT_EQ(result.num_transfers, 2);
  EXPECT_EQ(result.transfer_bytes_total, kSmall + kLarge);

  // The frozen reference still has the collision: it merges the pair.
  const auto stale = naive::RunReference(g, cluster, options, placement);
  EXPECT_EQ(stale.num_transfers, 1);

  // Identical sizes still dedup to a single send.
  OpGraph g2;
  g2.AddOp(producer);
  for (int i = 0; i < 2; ++i) {
    OpDef use;
    use.name = "dup" + std::to_string(i);
    use.type = OpType::kMatMul;
    use.flops = 1e6;
    use.output_shape = TensorShape{16};
    g2.AddOp(use);
  }
  g2.AddEdge(0, 1, kSmall);
  g2.AddEdge(0, 2, kSmall);
  ExecutionSimulator simulator2(g2, cluster, options);
  Placement placement2(g2, devices);
  placement2.Normalize(g2, cluster);
  const auto deduped = simulator2.Run(placement2);
  EXPECT_EQ(deduped.num_transfers, 1);
  EXPECT_EQ(deduped.transfer_bytes_total, kSmall);
}

TEST(MemoryModel, InPlaceOverloadMatchesAndReusesScratch) {
  const std::vector<LiveInterval> intervals{
      {0.0, 2.0, 100}, {1.0, 3.0, 50}, {2.5, 4.0, 75}, {0.5, 0.5, 999}};
  std::vector<MemEvent> scratch;
  EXPECT_EQ(PeakLiveBytes(intervals, scratch), PeakLiveBytes(intervals));
  const auto* data = scratch.data();
  const auto capacity = scratch.capacity();
  EXPECT_EQ(PeakLiveBytes(intervals, scratch), 150);
  EXPECT_EQ(scratch.data(), data);  // no reallocation on reuse
  EXPECT_EQ(scratch.capacity(), capacity);
}

TEST(Measurement, ProtocolCostAccounting) {
  OpGraph g = models::BuildChain(4, 1 << 10, 1e9);
  const auto cluster = TwoGpuCluster();
  MeasurementOptions options;
  options.noise_stddev = 0.0;
  MeasurementSession session(g, cluster, options);
  const auto result =
      session.Evaluate(Placement::AllOnDevice(g, cluster, 1));
  ASSERT_TRUE(result.valid);
  EXPECT_DOUBLE_EQ(result.per_step_seconds, result.true_per_step_seconds);
  // Cost = session overhead + param transfer + 15 steps.
  EXPECT_NEAR(result.measurement_cost_seconds,
              options.session_overhead_seconds +
                  15 * result.true_per_step_seconds,
              1e-6);
}

TEST(Measurement, NoiseAveragesOverMeasuredSteps) {
  OpGraph g = models::BuildChain(4, 1 << 10, 1e9);
  const auto cluster = TwoGpuCluster();
  MeasurementOptions options;
  options.noise_stddev = 0.05;
  MeasurementSession session(g, cluster, options);
  support::Rng rng(3);
  const auto placement = Placement::AllOnDevice(g, cluster, 1);
  const auto noisy = session.Evaluate(placement, &rng);
  const auto clean = session.Evaluate(placement, nullptr);
  EXPECT_NE(noisy.per_step_seconds, clean.per_step_seconds);
  // 10 averaged steps with 5% noise: within ~5 sigma of truth.
  EXPECT_NEAR(noisy.per_step_seconds, clean.per_step_seconds,
              clean.per_step_seconds * 0.1);
}

TEST(Measurement, InvalidStillCostsSessionSetup) {
  OpGraph g;
  OpDef big;
  big.name = "big";
  big.type = OpType::kVariable;
  big.output_shape = TensorShape{1};
  big.param_bytes = 64LL << 30;
  g.AddOp(big);
  const auto cluster = TwoGpuCluster();
  MeasurementSession session(g, cluster);
  const auto result =
      session.Evaluate(Placement::AllOnDevice(g, cluster, 1));
  EXPECT_FALSE(result.valid);
  EXPECT_GT(result.measurement_cost_seconds, 0.0);
}

TEST(SimWorkspace, EpochWrapRestampsCleanly) {
  // Prime the pooled workspace's epoch next to the 2^32 boundary and run
  // straight through the wrap; each run must match a fresh simulator.
  const auto cluster = TwoGpuCluster();
  support::Rng graph_rng(47);
  models::FuzzGraphConfig config;
  config.num_ops = 120;
  config.width = 8;
  const OpGraph g = models::BuildFuzzGraph(config, graph_rng);
  SimulatorOptions options;
  options.record_schedule = true;
  const ExecutionSimulator wrapped(g, cluster, options);
  wrapped.PrimeWorkspaceEpochForTest(
      std::numeric_limits<std::uint32_t>::max() - 2);
  support::Rng rng(53);
  for (int round = 0; round < 6; ++round) {
    Placement placement(g, RandomDevices(g, cluster, rng));
    placement.Normalize(g, cluster);
    const ExecutionSimulator fresh(g, cluster, options);
    ExpectStepResultsIdentical(wrapped.Run(placement), fresh.Run(placement));
  }
}

TEST(SimWorkspace, PrepareHandlesShapeChanges) {
  SimWorkspace ws;
  ws.Prepare(4, 2, 8);
  EXPECT_EQ(ws.epoch, 1u);
  ws.Prepare(4, 2, 8);
  EXPECT_EQ(ws.epoch, 2u);
  // More devices: the flat op×device arrays regrow and epochs restart, so
  // no stale stamp from the old shape can alias a live slot.
  ws.Prepare(4, 3, 18);
  EXPECT_EQ(ws.epoch, 1u);
  EXPECT_EQ(ws.live_epoch.size(), 12u);
  EXPECT_EQ(ws.transfer_overflow_head.size(), 12u);
  EXPECT_EQ(ws.heaps.size(), 3u);
  // Back to the smaller shape: same reset.
  ws.Prepare(4, 2, 8);
  EXPECT_EQ(ws.epoch, 1u);
  EXPECT_EQ(ws.live_epoch.size(), 8u);
  // Op-count change alone also reshapes.
  ws.Prepare(6, 2, 8);
  EXPECT_EQ(ws.epoch, 1u);
  EXPECT_EQ(ws.ready_epoch.size(), 6u);
}

TEST(Simulator, TransferDedupManyDistinctSizesPerSlot) {
  // Adversarial shape for the old flat overflow list: one producer ships
  // many distinct tensor widths to one device, so every lookup used to
  // scan every previous overflow entry. Correctness check: each distinct
  // size is one physical transfer, duplicates still dedup, and the
  // result matches the frozen reference bit-for-bit.
  constexpr int kConsumers = 48;
  OpGraph g;
  OpDef producer;
  producer.name = "producer";
  producer.type = OpType::kMatMul;
  producer.flops = 1e6;
  producer.output_shape = TensorShape{16};
  g.AddOp(producer);
  std::int64_t distinct_bytes = 0;
  for (int i = 0; i < kConsumers; ++i) {
    OpDef use;
    use.name = "use" + std::to_string(i);
    use.type = OpType::kMatMul;
    use.flops = 1e6;
    use.output_shape = TensorShape{16};
    g.AddOp(use);
    // Every third consumer repeats the previous size — the dedup must
    // find it mid-chain, not just at the primary slot.
    const std::int64_t bytes =
        (i % 3 == 2) ? 1000 + (i - 1) * 8 : 1000 + i * 8;
    if (i % 3 != 2) distinct_bytes += bytes;
    g.AddEdge(0, i + 1, bytes);
  }
  const auto cluster = TwoGpuCluster();
  SimulatorOptions options;
  options.record_schedule = true;
  ExecutionSimulator simulator(g, cluster, options);
  std::vector<DeviceId> devices(static_cast<std::size_t>(g.num_ops()), 2);
  devices[0] = 1;
  Placement placement(g, devices);
  placement.Normalize(g, cluster);
  const auto result = simulator.Run(placement);
  EXPECT_EQ(result.num_transfers, kConsumers - kConsumers / 3);
  EXPECT_EQ(result.transfer_bytes_total, distinct_bytes);
  ExpectStepResultsIdentical(
      result, naive::RunReference(g, cluster, options, placement, nullptr,
                                  /*record_schedule=*/true));
}

TEST(ClusterSpec, ValidateRejectsDegenerateSpecs) {
  EXPECT_EQ(ClusterSpec().Validate().code(), support::ErrorCode::kSyntax);

  auto zero_gflops = TwoGpuCluster();
  {
    ClusterOptions opts;
    opts.num_gpus = 2;
    opts.gpu_gflops = 0.0;
    zero_gflops = MakeDefaultCluster(opts);
  }
  const auto status = zero_gflops.Validate();
  EXPECT_EQ(status.code(), support::ErrorCode::kNumericOverflow);
  EXPECT_NE(status.ToString().find("gflops"), std::string::npos);

  ClusterOptions nan_pcie;
  nan_pcie.num_gpus = 1;
  nan_pcie.pcie_gbps = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(MakeDefaultCluster(nan_pcie).Validate().code(),
            support::ErrorCode::kNumericOverflow);

  ClusterOptions neg_latency;
  neg_latency.num_gpus = 1;
  neg_latency.pcie_latency_us = -1.0;
  EXPECT_EQ(MakeDefaultCluster(neg_latency).Validate().code(),
            support::ErrorCode::kNumericOverflow);

  EXPECT_TRUE(TwoGpuCluster().Validate().ok());
}

TEST(ClusterSpec, SimulatorRefusesInvalidCluster) {
  ClusterOptions opts;
  opts.num_gpus = 1;
  opts.gpu_gflops = -5.0;
  const auto bad = MakeDefaultCluster(opts);
  OpGraph g;
  OpDef op;
  op.name = "op";
  op.type = OpType::kMatMul;
  op.flops = 1e6;
  op.output_shape = TensorShape{16};
  g.AddOp(op);
  EXPECT_THROW(ExecutionSimulator(g, bad), std::logic_error);
}

}  // namespace
}  // namespace eagle::sim
