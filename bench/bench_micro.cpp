// Hot-path microbenchmarks: the optimized kernels raced against their
// frozen naive references, in one binary, with min-of-repeats timing.
//
// Two sections, matching the two hot loops of a training round:
//   - GEMM at placer shapes: optimized (nn::GemmAccum & friends) vs the
//     bit-identity oracle (nn::naive::*) vs the seed-commit kernels
//     verbatim (bench::prepr::*, zero-skip and contraction included —
//     the true pre-PR baseline the acceptance ratios compare against;
//     the oracle is itself faster than pre-PR because removing the
//     zero-skip branch and spelling fma explicitly helps the compiler);
//   - simulator steps/sec on the paper graphs (ExecutionSimulator with
//     its pooled SimWorkspace vs sim::naive::RunReference, which is the
//     pre-workspace implementation verbatim, i.e. also the pre-PR
//     baseline).
//
// Optimized and oracle are bit-identical by construction
// (tests/test_kernels.cpp, tests/test_sim.cpp prove it), so the ratios
// below are pure throughput.
// Timing uses calibrated inner loops and the *minimum* over --repeats
// outer repeats: on a shared/noisy machine the minimum is the best
// estimate of the undisturbed cost, and naive/optimized run interleaved
// so drift hits both sides equally.
//
// GEMM rows tagged "placer" are the grouper/placer forward mat-mul
// shapes the ≥3× acceptance target is defined over; untagged rows
// (skinny logits projection, transposed backward variants) are coverage
// for the trajectory — see the GemmCase comment for why the skinny
// shape cannot reach 3× on this machine at all. The backward rows time
// the shapes training executes: one-row LSTM-step input gradients
// (gemm_tb m=1), a 64-step weight gradient as 64 one-row calls against
// one 64-row call (gemm_ta), and the grouper's 5042-row W2 gradient on
// normal data and with subnormal entries.
//
// Writes results/BENCH_kernels.json (override with --out=PATH) so future
// PRs have a perf trajectory; --smoke shrinks shapes and repeats for the
// CI wiring in scripts/run_ci.sh.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/load_graphs.h"
#include "bench/prepr_kernels.h"
#include "models/zoo.h"
#include "nn/layers.h"
#include "nn/naive_ref.h"
#include "nn/tensor.h"
#include "sim/measurement.h"
#include "sim/naive_ref.h"
#include "sim/simulator.h"
#include "support/args.h"
#include "support/atomic_file.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/stopwatch.h"

namespace {

using namespace eagle;

struct BenchTiming {
  double seconds_per_call = 0.0;  // min over repeats
  long long iterations = 0;       // per repeat, after calibration
};

// Calibrates `fn` to run for roughly `target_seconds` per repeat, then
// reports the fastest repeat. `fn(iters)` must execute the payload
// exactly `iters` times.
template <typename Fn>
BenchTiming MeasureMinOfRepeats(Fn&& fn, int repeats, double target_seconds) {
  long long iters = 1;
  for (;;) {
    support::Stopwatch watch;
    fn(iters);
    const double elapsed = watch.ElapsedSeconds();
    if (elapsed >= target_seconds || iters >= (1LL << 30)) {
      BenchTiming timing;
      timing.iterations = iters;
      timing.seconds_per_call = elapsed / static_cast<double>(iters);
      for (int r = 1; r < repeats; ++r) {
        support::Stopwatch repeat_watch;
        fn(iters);
        timing.seconds_per_call =
            std::min(timing.seconds_per_call,
                     repeat_watch.ElapsedSeconds() / static_cast<double>(iters));
      }
      return timing;
    }
    // Aim past the target so the final repeat is comfortably long.
    const double growth =
        elapsed > 0.0 ? target_seconds * 1.4 / elapsed : 16.0;
    iters = std::max(iters + 1, static_cast<long long>(
                                    static_cast<double>(iters) * growth));
  }
}

struct GemmCase {
  const char* kernel;  // "gemm" | "gemm_ta" | "gemm_tb"
  int m, k, n;
  // True for the placer/grouper forward mat-mul shapes the ≥3× target is
  // defined over. The other rows are supplementary coverage: the skinny
  // logits projection's naive baseline already runs from L1 (23+ GFLOP/s,
  // so 3× would exceed the machine's 67 GFLOP/s fma peak), and the
  // transposed backward variants are tracked for the perf trajectory.
  bool placer = false;
  // The row times `calls` successive calls on distinct operands, i.e. one
  // product of calls·k reduction rows split into separate calls.
  int calls = 1;
  // Fraction of b's entries scaled into the subnormal range.
  double subnormal_frac = 0.0;
  // gemm_tb only: the optimized contender is GemmTransBAccumPretransposed
  // against a bᵀ made outside the timed loop, as a tape MatMul against a
  // Param runs it (one cached transpose per tape).
  bool pretransposed = false;
};

struct GemmRow {
  GemmCase shape;
  double prepr_gflops = 0.0;  // seed-commit kernel, seed flags
  double naive_gflops = 0.0;  // bit-identity oracle (nn::naive)
  double opt_gflops = 0.0;
  double speedup_vs_prepr = 0.0;
  double speedup_vs_naive = 0.0;
};

GemmRow RunGemmCase(const GemmCase& shape, int repeats, double target_seconds) {
  support::Rng rng(11);
  // Operand shapes per kernel convention: gemm is a(m,k)·b(k,n);
  // gemm_ta is aᵀ(k,m)·b(k,n) reducing over rows; gemm_tb is
  // a(m,n)·bᵀ(k,n) producing (m,k).
  const bool ta = std::string(shape.kernel) == "gemm_ta";
  const bool tb = std::string(shape.kernel) == "gemm_tb";
  // The pre-PR contender runs on the same values but in seed storage
  // (std::vector-backed, malloc alignment): nn::Tensor's 32-byte
  // alignment is part of this rewrite's win and must not be credited to
  // the baseline.
  std::vector<nn::Tensor> as, bs;
  std::vector<bench::prepr::Tensor> pas, pbs;
  for (int c = 0; c < shape.calls; ++c) {
    nn::Tensor a = ta ? nn::Tensor(shape.k, shape.m)
                      : (tb ? nn::Tensor(shape.m, shape.n)
                            : nn::Tensor(shape.m, shape.k));
    nn::Tensor b(shape.k, shape.n);
    nn::UniformInit(a, -1, 1, rng);
    nn::UniformInit(b, -1, 1, rng);
    for (std::int64_t i = 0; i < b.size(); ++i) {
      if (rng.NextDouble() < shape.subnormal_frac) b.data()[i] *= 1e-39f;
    }
    pas.emplace_back(a);
    pbs.emplace_back(b);
    as.push_back(std::move(a));
    bs.push_back(std::move(b));
  }
  nn::Tensor out = tb ? nn::Tensor(shape.m, shape.k)
                      : nn::Tensor(shape.m, shape.n);
  bench::prepr::Tensor pout(out);

  const double flops_per_call =
      2.0 * shape.m * shape.k * shape.n * shape.calls;
  std::vector<nn::Tensor> b_ts;
  if (shape.pretransposed) {
    for (const nn::Tensor& b : bs) b_ts.push_back(nn::Transposed(b));
  }
  const auto measure = [&](auto kernel, const std::vector<nn::Tensor>& bv) {
    return MeasureMinOfRepeats(
        [&](long long iters) {
          for (long long i = 0; i < iters; ++i)
            for (int c = 0; c < shape.calls; ++c)
              kernel(as[static_cast<std::size_t>(c)],
                     bv[static_cast<std::size_t>(c)], out);
        },
        repeats, target_seconds);
  };
  // Interleave-by-section: all contenders run back to back on the same
  // operands, so machine-level drift cannot favor one side.
  const BenchTiming opt =
      shape.pretransposed
          ? measure(nn::GemmTransBAccumPretransposed, b_ts)
          : measure(ta   ? nn::GemmTransAAccum
                    : tb ? nn::GemmTransBAccum
                         : nn::GemmAccum,
                    bs);
  const BenchTiming naive = measure(ta   ? nn::naive::GemmTransAAccum
                                    : tb ? nn::naive::GemmTransBAccum
                                         : nn::naive::GemmAccum,
                                    bs);
  const auto prepr_kernel = ta   ? bench::prepr::GemmTransAAccum
                            : tb ? bench::prepr::GemmTransBAccum
                                 : bench::prepr::GemmAccum;
  const BenchTiming prepr = MeasureMinOfRepeats(
      [&](long long iters) {
        for (long long i = 0; i < iters; ++i)
          for (int c = 0; c < shape.calls; ++c)
            prepr_kernel(pas[static_cast<std::size_t>(c)],
                         pbs[static_cast<std::size_t>(c)], pout);
      },
      repeats, target_seconds);

  GemmRow row;
  row.shape = shape;
  row.prepr_gflops = flops_per_call / prepr.seconds_per_call / 1e9;
  row.naive_gflops = flops_per_call / naive.seconds_per_call / 1e9;
  row.opt_gflops = flops_per_call / opt.seconds_per_call / 1e9;
  row.speedup_vs_prepr = prepr.seconds_per_call / opt.seconds_per_call;
  row.speedup_vs_naive = naive.seconds_per_call / opt.seconds_per_call;
  return row;
}

struct SimRow {
  std::string graph;
  int num_ops = 0;
  double naive_steps_per_sec = 0.0;
  double opt_steps_per_sec = 0.0;
  double speedup = 0.0;
};

SimRow RunSimCaseOnGraph(const std::string& label,
                         const graph::OpGraph& graph,
                         const sim::ClusterSpec& cluster, int repeats,
                         double target_seconds) {
  const sim::SimulatorOptions options;
  sim::ExecutionSimulator simulator(graph, cluster, options);
  // The frozen reference gets the same constructor-cached priorities the
  // historical simulator had, outside the timed region.
  const std::vector<int> priorities = sim::naive::CriticalPriorities(graph);

  support::Rng rng(1);
  std::vector<sim::DeviceId> devices(static_cast<std::size_t>(graph.num_ops()));
  for (auto& d : devices) {
    d = static_cast<sim::DeviceId>(
        rng.NextBelow(static_cast<std::uint64_t>(cluster.num_devices())));
  }
  sim::Placement placement(graph, devices);
  placement.Normalize(graph, cluster);

  const BenchTiming opt = MeasureMinOfRepeats(
      [&](long long iters) {
        for (long long i = 0; i < iters; ++i) {
          volatile double sink = simulator.Run(placement).step_seconds;
          (void)sink;
        }
      },
      repeats, target_seconds);
  const BenchTiming naive = MeasureMinOfRepeats(
      [&](long long iters) {
        for (long long i = 0; i < iters; ++i) {
          volatile double sink =
              sim::naive::RunReference(graph, cluster, options, priorities,
                                       placement)
                  .step_seconds;
          (void)sink;
        }
      },
      repeats, target_seconds);

  SimRow row;
  row.graph = label;
  row.num_ops = graph.num_ops();
  row.naive_steps_per_sec = 1.0 / naive.seconds_per_call;
  row.opt_steps_per_sec = 1.0 / opt.seconds_per_call;
  row.speedup = naive.seconds_per_call / opt.seconds_per_call;
  return row;
}

SimRow RunSimCase(models::Benchmark benchmark,
                  const sim::ClusterSpec& cluster, bool reduced, int repeats,
                  double target_seconds) {
  models::ZooOptions zoo;
  zoo.reduced = reduced;
  return RunSimCaseOnGraph(models::BenchmarkName(benchmark),
                           models::BuildBenchmark(benchmark, zoo), cluster,
                           repeats, target_seconds);
}

std::string RenderJson(const std::vector<GemmRow>& gemm,
                       const std::vector<SimRow>& sims, bool smoke,
                       int repeats) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"eagle.bench_kernels.v1\",\n";
  os << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  os << "  \"repeats\": " << repeats << ",\n";
  os << "  \"simd\": "
#if defined(__AVX2__) && defined(__FMA__)
     << "true"
#else
     << "false"
#endif
     << ",\n";
  os << "  \"gemm\": [\n";
  for (std::size_t i = 0; i < gemm.size(); ++i) {
    const auto& r = gemm[i];
    os << "    {\"kernel\": \"" << r.shape.kernel << "\", \"m\": "
       << r.shape.m << ", \"k\": " << r.shape.k << ", \"n\": " << r.shape.n
       << ", \"placer\": " << (r.shape.placer ? "true" : "false")
       << ", \"calls\": " << r.shape.calls
       << ", \"subnormal_frac\": " << support::json::Num(r.shape.subnormal_frac)
       << ", \"pretransposed\": " << (r.shape.pretransposed ? "true" : "false")
       << ", \"prepr_gflops\": " << support::json::Num(r.prepr_gflops)
       << ", \"naive_gflops\": " << support::json::Num(r.naive_gflops)
       << ", \"opt_gflops\": " << support::json::Num(r.opt_gflops)
       << ", \"speedup_vs_prepr\": " << support::json::Num(r.speedup_vs_prepr)
       << ", \"speedup_vs_naive\": " << support::json::Num(r.speedup_vs_naive)
       << "}" << (i + 1 < gemm.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"simulator\": [\n";
  for (std::size_t i = 0; i < sims.size(); ++i) {
    const auto& r = sims[i];
    os << "    {\"graph\": \"" << support::json::Escape(r.graph)
       << "\", \"num_ops\": " << r.num_ops
       << ", \"naive_steps_per_sec\": "
       << support::json::Num(r.naive_steps_per_sec)
       << ", \"opt_steps_per_sec\": "
       << support::json::Num(r.opt_steps_per_sec)
       << ", \"speedup\": " << support::json::Num(r.speedup) << "}"
       << (i + 1 < sims.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  double placer_min = 0.0, all_min = 0.0, sim_min = 0.0;
  for (const auto& r : gemm) {
    all_min = all_min == 0.0 ? r.speedup_vs_prepr
                             : std::min(all_min, r.speedup_vs_prepr);
    if (!r.shape.placer) continue;
    placer_min = placer_min == 0.0 ? r.speedup_vs_prepr
                                   : std::min(placer_min, r.speedup_vs_prepr);
  }
  for (const auto& r : sims) {
    sim_min = sim_min == 0.0 ? r.speedup : std::min(sim_min, r.speedup);
  }
  os << "  \"summary\": {\"gemm_min_speedup_vs_prepr\": "
     << support::json::Num(placer_min)
     << ", \"gemm_min_speedup_all_shapes\": " << support::json::Num(all_min)
     << ", \"sim_min_speedup\": " << support::json::Num(sim_min) << "}\n";
  os << "}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args(
      "Hot-path microbenchmarks: optimized GEMM kernels and the "
      "workspace simulator vs their frozen naive references. Writes a "
      "BENCH_kernels.json perf baseline.");
  args.AddBool("smoke", false,
               "tiny shapes and short repeats (CI wiring; ratios are "
               "still reported but not meaningful)");
  args.AddInt("repeats", 7, "outer repeats; the minimum is reported");
  args.AddDouble("target-ms", 60.0, "per-repeat calibrated duration");
  args.AddString("out", "results/BENCH_kernels.json",
                 "output JSON path (empty string: stdout only)");
  args.AddString("load", "",
                 "comma-separated graph files (.eg or .json) to add as "
                 "extra simulator rows; malformed files exit 2 with a "
                 "file:line diagnostic");
  args.AddString("cluster", "",
                 "cluster topology for the simulator rows: default, "
                 "2node8, mixed, or a .ec/.json cluster-spec file");
  if (!args.Parse(argc, argv)) return 0;

  const auto imported = bench::ImportGraphsOrExit(args.GetString("load"));
  const sim::ClusterSpec cluster =
      bench::ResolveClusterOrExit(args.GetString("cluster"));

  const bool smoke = args.GetBool("smoke");
  const int repeats = smoke ? 2 : static_cast<int>(args.GetInt("repeats"));
  const double target_seconds =
      (smoke ? 5.0 : args.GetDouble("target-ms")) / 1e3;

  // Placer shapes: the grouper FFN and seq2seq placer mat-muls are
  // square-ish 64–256 blocks; the skinny case is the per-step logits
  // projection (batch rows × hidden). Backward shapes: an LSTM step's
  // input gradient dX = dC·Wᵀ is gemm_tb with m=1 against the 328×256
  // decoder weight (default dimensions) or the 2592×2048 one (paper
  // scale); its weight gradient dW = xhᵀ·dC is gemm_ta with one
  // reduction row per step, timed as 64 one-row calls and as the one
  // 64-row call the tape folds them into; the grouper's
  // dW2 = hᵀ·dlogits reduces over GNMT's 5042 ops.
  std::vector<GemmCase> gemm_cases;
  if (smoke) {
    gemm_cases = {{"gemm", 48, 48, 48, true},
                  {"gemm_ta", 32, 32, 32, false},
                  {"gemm_tb", 32, 32, 32, false},
                  {"gemm_tb", 1, 40, 32, false, 1, 0.0, true},
                  {"gemm_ta", 40, 1, 32, false, 8},
                  {"gemm_ta", 40, 8, 32, false}};
  } else {
    gemm_cases = {{"gemm", 64, 64, 64, true},
                  {"gemm", 128, 128, 128, true},
                  {"gemm", 256, 256, 256, true},
                  {"gemm", 8, 256, 256, false},
                  {"gemm_ta", 128, 128, 128, false},
                  {"gemm_tb", 128, 128, 128, false},
                  {"gemm_tb", 1, 328, 256, false},
                  {"gemm_tb", 1, 328, 256, false, 1, 0.0, true},
                  {"gemm_tb", 1, 2592, 2048, false, 1, 0.0, true},
                  {"gemm_ta", 328, 1, 256, false, 64},
                  {"gemm_ta", 328, 64, 256, false},
                  {"gemm_ta", 2592, 1, 2048, false, 64},
                  {"gemm_ta", 2592, 64, 2048, false},
                  {"gemm_ta", 24, 5042, 24, false},
                  {"gemm_ta", 24, 5042, 24, false, 1, 0.05}};
  }

  std::vector<GemmRow> gemm;
  for (const auto& c : gemm_cases) {
    gemm.push_back(RunGemmCase(c, repeats, target_seconds));
    const auto& r = gemm.back();
    std::cout << r.shape.kernel << " " << r.shape.m << "x" << r.shape.k << "x"
              << r.shape.n;
    if (r.shape.calls > 1) std::cout << " in " << r.shape.calls << " calls";
    if (r.shape.pretransposed) std::cout << " pretransposed";
    if (r.shape.subnormal_frac > 0.0)
      std::cout << " (" << r.shape.subnormal_frac * 100 << "% subnormal b)";
    std::cout << ": pre-PR " << r.prepr_gflops
              << " GFLOP/s, oracle " << r.naive_gflops << " GFLOP/s, opt "
              << r.opt_gflops << " GFLOP/s, speedup vs pre-PR "
              << r.speedup_vs_prepr << "x\n";
  }

  std::vector<SimRow> sims;
  for (const auto benchmark : models::AllBenchmarks()) {
    sims.push_back(
        RunSimCase(benchmark, cluster, smoke, repeats, target_seconds));
    const auto& r = sims.back();
    std::cout << "sim " << r.graph << " (" << r.num_ops << " ops): naive "
              << r.naive_steps_per_sec << " steps/s, opt "
              << r.opt_steps_per_sec << " steps/s, speedup " << r.speedup
              << "x\n";
  }
  for (const auto& [name, graph] : imported) {
    sims.push_back(
        RunSimCaseOnGraph(name, graph, cluster, repeats, target_seconds));
    const auto& r = sims.back();
    std::cout << "sim " << r.graph << " (" << r.num_ops
              << " ops, imported): naive " << r.naive_steps_per_sec
              << " steps/s, opt " << r.opt_steps_per_sec
              << " steps/s, speedup " << r.speedup << "x\n";
  }

  const std::string json = RenderJson(gemm, sims, smoke, repeats);
  const std::string out = args.GetString("out");
  if (!out.empty()) {
    if (!support::WriteFileAtomic(
            out, [&](std::ostream& os) { return bool(os << json); })) {
      std::cerr << "failed to write " << out << "\n";
      return 1;
    }
    std::cout << "wrote " << out << "\n";
  } else {
    std::cout << json;
  }
  return 0;
}
