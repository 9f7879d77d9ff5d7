// Extension bench (§II-C discussion): Placeto-style incremental placement
// vs EAGLE's one-shot placement on the paper benchmarks.
//
// Placeto evaluates the placement after every single group move, which is
// only affordable against a simulator — its cost column is therefore
// "simulator evaluations", while EAGLE's is simulated measurement hours.
// The paper's argument is that per-change rewards ease credit assignment
// but need far more environment interactions; both sides are visible
// here.
#include <cstdio>

#include "bench/bench_common.h"
#include "core/placeto_agent.h"

using namespace eagle;
using bench::BenchConfig;

int main(int argc, char** argv) {
  support::ArgParser args("Placeto vs EAGLE");
  bench::AddCommonFlags(args, /*default_samples=*/250);
  args.AddInt("episodes", 40, "Placeto sweeps over the groups");
  if (!args.Parse(argc, argv)) return 0;
  const BenchConfig config = bench::ReadCommonFlags(args);

  support::Table table(
      "PLACETO vs EAGLE: best per-step time (s) and interaction budgets.");
  table.SetHeader({"Models", "Placeto", "sim evals", "EAGLE (PPO)",
                   "sim hours"});
  for (auto benchmark : config.benchmarks) {
    auto context = bench::MakeContext(benchmark, config);
    core::PlacetoOptions placeto;
    placeto.episodes = static_cast<int>(args.GetInt("episodes"));
    placeto.num_groups = config.dims().num_groups;
    placeto.seed = config.seed;
    core::PlacetoAgent placeto_agent(context.graph, context.cluster,
                                     placeto);
    const auto placeto_result = placeto_agent.Train();

    auto eagle_agent = core::MakeEagleAgent(context.graph, context.cluster,
                                            config.dims(), config.seed);
    const auto eagle_result = bench::TrainOnBenchmark(
        *eagle_agent, context, rl::Algorithm::kPpo, config);

    table.AddRow(
        {models::BenchmarkName(benchmark),
         placeto_result.found_valid
             ? support::Table::Num(placeto_result.best_per_step_seconds)
             : "OOM",
         std::to_string(placeto_result.simulator_evaluations),
         bench::FormatResult(eagle_result),
         support::Table::Num(eagle_result.total_virtual_hours, 2)});
  }
  std::fputs(table.ToString().c_str(), stdout);
  bench::MaybeWriteCsv(table, config, "placeto");
  return bench::Finish(config);
}
