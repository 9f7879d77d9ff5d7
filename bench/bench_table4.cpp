// Table IV reproduction — the headline comparison: Single GPU, Human
// Expert, Hierarchical Planner, Post, EAGLE (PPO), EAGLE (PPO+CE) on
// Inception-V3 / GNMT / BERT.
//
// Expected shape (paper):
//   Inception — everyone ties near the single-GPU time, RL a touch
//   better; GNMT — Single GPU OOM, EAGLE < Hierarchical Planner < Human
//   Expert, Post stuck in a local optimum; BERT — Single GPU and Human
//   Expert OOM, EAGLE < Post < Hierarchical Planner, EAGLE ~15-20% ahead
//   of Post.
#include <cstdio>

#include "bench/bench_common.h"

using namespace eagle;
using bench::BenchConfig;

int main(int argc, char** argv) {
  support::ArgParser args("Table IV: final placements vs all baselines");
  bench::AddCommonFlags(args, /*default_samples=*/300);
  if (!args.Parse(argc, argv)) return 0;
  const BenchConfig config = bench::ReadCommonFlags(args);

  support::Table table(
      "TABLE IV: Per-step time (in seconds) of placements found by "
      "different approaches (lower is better). OOM stands for "
      "Out-Of-Memory.");
  table.SetHeader({"Models", "Single GPU", "Human Experts",
                   "Hierarchical Planner", "Post", "EAGLE (PPO)",
                   "EAGLE (PPO+CE)"});
  for (auto benchmark : config.benchmarks) {
    auto context = bench::MakeContext(benchmark, config);
    std::vector<std::string> row{models::BenchmarkName(benchmark)};

    // Pre-defined placements (evaluated directly, no training).
    row.push_back(bench::FormatEval(context.env->Evaluate(
        core::SingleGpuPlacement(context.graph, context.cluster), nullptr)));
    const auto expert = core::HumanExpertPlacement(benchmark, context.graph,
                                                   context.cluster);
    row.push_back(expert ? bench::FormatEval(
                               context.env->Evaluate(*expert, nullptr))
                         : std::string("OOM"));

    // RL approaches, each trained as published: HP with REINFORCE, Post
    // with PPO+CE, EAGLE with both PPO and PPO+CE.
    {
      auto hp = core::MakeHierarchicalPlanner(context.graph, context.cluster,
                                              config.dims(), config.seed);
      row.push_back(bench::FormatResult(bench::TrainOnBenchmark(
          *hp, context, rl::Algorithm::kReinforce, config)));
    }
    {
      auto post = core::MakePostAgent(context.graph, context.cluster,
                                      /*num_groups=*/16, config.seed);
      row.push_back(bench::FormatResult(bench::TrainOnBenchmark(
          *post, context, rl::Algorithm::kPpoCe, config)));
    }
    for (auto algorithm : {rl::Algorithm::kPpo, rl::Algorithm::kPpoCe}) {
      auto agent = core::MakeEagleAgent(context.graph, context.cluster,
                                        config.dims(), config.seed);
      row.push_back(bench::FormatResult(
          bench::TrainOnBenchmark(*agent, context, algorithm, config)));
    }
    table.AddRow(std::move(row));
  }
  std::fputs(table.ToString().c_str(), stdout);
  bench::MaybeWriteCsv(table, config, "table4");
  return bench::Finish(config);
}
