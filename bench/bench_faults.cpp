// Robustness bench: best per-step time found by EAGLE (PPO) as the
// measurement environment degrades. Each column injects faults at an
// increasing base rate r (transient session crashes at r, hard device
// downs at r/4, stragglers at r, degraded links at r — the
// sim::FaultProfileFromString bare-number shorthand). Retries with
// exponential backoff keep training alive; exhausted evaluations fall
// back to the invalid-placement penalty, so runs complete even at high
// rates — at the cost of virtual measurement hours and sample quality.
#include <cstdio>

#include "bench/bench_common.h"

using namespace eagle;
using bench::BenchConfig;

namespace {

std::vector<double> ParseRates(const std::string& list) {
  std::vector<double> rates;
  for (const std::string& token : support::SplitCommaList(list)) {
    rates.push_back(std::stod(token));
  }
  EAGLE_CHECK_MSG(!rates.empty(), "--rates needs at least one value");
  return rates;
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args("Faults: EAGLE robustness vs fault-injection rate");
  bench::AddCommonFlags(args, /*default_samples=*/150);
  args.AddString("rates", "0,0.05,0.1,0.2",
                 "comma-separated base fault rates to sweep");
  if (!args.Parse(argc, argv)) return 0;
  const BenchConfig config = bench::ReadCommonFlags(args);
  const auto rates = ParseRates(args.GetString("rates"));

  support::Table table(
      "FAULTS: best per-step time (s) found by EAGLE (PPO) vs injected "
      "fault rate, with retry/failure accounting.");
  table.SetHeader({"Models", "rate", "best s/step", "invalid", "attempts",
                   "failures", "timeouts", "retries", "gave up",
                   "sim hours"});
  for (auto benchmark : config.benchmarks) {
    for (std::size_t i = 0; i < rates.size(); ++i) {
      BenchConfig run_config = config;
      // The bare-number shorthand of sim::FaultProfileFromString.
      run_config.faults.transient_failure_rate = rates[i];
      run_config.faults.device_down_rate = rates[i] / 4.0;
      run_config.faults.straggler_rate = rates[i];
      run_config.faults.degraded_link_rate = rates[i];
      // Distinct fault stream per (model, rate) cell, reproducible per
      // --seed.
      run_config.faults.seed =
          config.seed * 1000 + static_cast<std::uint64_t>(i);
      auto context = bench::MakeContext(benchmark, run_config);
      auto agent = core::MakeEagleAgent(context.graph, context.cluster,
                                        run_config.dims(), run_config.seed);
      const auto result = bench::TrainOnBenchmark(
          *agent, context, rl::Algorithm::kPpo, run_config);
      table.AddRow({models::BenchmarkName(benchmark),
                    support::Table::Num(rates[i], 2),
                    bench::FormatResult(result),
                    std::to_string(result.invalid_samples),
                    std::to_string(context.env->attempts()),
                    std::to_string(context.env->transient_failures()),
                    std::to_string(context.env->timeouts()),
                    std::to_string(context.env->retries()),
                    std::to_string(context.env->exhausted_evaluations()),
                    support::Table::Num(result.total_virtual_hours, 2)});
    }
  }
  std::fputs(table.ToString().c_str(), stdout);
  bench::MaybeWriteCsv(table, config, "faults");
  return bench::Finish(config);
}
