// Table III reproduction: EAGLE trained with REINFORCE vs PPO vs PPO
// joint with cross-entropy minimization (§III-D).
//
// Expected shape (paper): PPO best overall; PPO+CE competitive on GNMT
// but trapped in a local optimum on BERT; REINFORCE worst on the large
// models, tied on Inception-V3.
#include <cstdio>

#include "bench/bench_common.h"

using namespace eagle;
using bench::BenchConfig;

int main(int argc, char** argv) {
  support::ArgParser args("Table III: EAGLE under different RL algorithms");
  bench::AddCommonFlags(args, /*default_samples=*/250);
  if (!args.Parse(argc, argv)) return 0;
  const BenchConfig config = bench::ReadCommonFlags(args);

  support::Table table(
      "TABLE III: Per-step time (in seconds) of placements found by EAGLE "
      "trained with three different algorithms.");
  table.SetHeader({"Models", "REINFORCE", "PPO", "PPO+CE"});
  for (auto benchmark : config.benchmarks) {
    auto context = bench::MakeContext(benchmark, config);
    std::vector<std::string> row{models::BenchmarkName(benchmark)};
    for (auto algorithm : {rl::Algorithm::kReinforce, rl::Algorithm::kPpo,
                           rl::Algorithm::kPpoCe}) {
      auto agent = core::MakeEagleAgent(context.graph, context.cluster,
                                        config.dims(), config.seed);
      row.push_back(bench::FormatResult(
          bench::TrainOnBenchmark(*agent, context, algorithm, config)));
    }
    table.AddRow(std::move(row));
  }
  std::fputs(table.ToString().c_str(), stdout);
  bench::MaybeWriteCsv(table, config, "table3");
  return bench::Finish(config);
}
