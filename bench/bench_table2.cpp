// Table II reproduction: per-step time of placements found by the agent
// with a METIS grouper and different placers — Seq2Seq with attention
// before the decoder, Seq2Seq with attention after, and GCN.
//
// Expected shape (paper): seq2seq beats GCN on every model; before ≈
// after on Inception/GNMT, before clearly better on BERT.
#include <cstdio>

#include "bench/bench_common.h"

using namespace eagle;
using bench::BenchConfig;

namespace {

rl::TrainResult RunPlacer(const std::string& placer,
                          bench::BenchContext& context,
                          const graph::Grouping& grouping,
                          const BenchConfig& config) {
  const auto dims = config.dims();
  const core::PlacerKind kind = placer == "gcn" ? core::PlacerKind::kGcn
                                                : core::PlacerKind::kSeq2Seq;
  const core::AttentionVariant attention =
      placer == "before" ? core::AttentionVariant::kBefore
                         : core::AttentionVariant::kAfter;
  auto agent = core::MakeFixedGrouperAgent(
      context.graph, context.cluster, grouping, kind, attention, dims,
      config.seed, "placer:" + placer);
  return bench::TrainOnBenchmark(*agent, context, rl::Algorithm::kPpo,
                                 config);
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args("Table II: METIS grouper with different placers");
  bench::AddCommonFlags(args, /*default_samples=*/220);
  if (!args.Parse(argc, argv)) return 0;
  const BenchConfig config = bench::ReadCommonFlags(args);

  support::Table table(
      "TABLE II: Per-step time (in seconds) of placements found by the "
      "agent with METIS grouper and different placers.");
  table.SetHeader(
      {"Models", "Seq2Seq(before)", "Seq2Seq(after)", "GCN"});
  for (auto benchmark : config.benchmarks) {
    auto context = bench::MakeContext(benchmark, config);
    const auto grouping = bench::MetisGrouping(
        context.graph, config.dims().num_groups, config.seed);
    std::vector<std::string> row{models::BenchmarkName(benchmark)};
    for (const char* placer : {"before", "after", "gcn"}) {
      row.push_back(
          bench::FormatResult(RunPlacer(placer, context, grouping, config)));
    }
    table.AddRow(std::move(row));
  }
  std::fputs(table.ToString().c_str(), stdout);
  bench::MaybeWriteCsv(table, config, "table2");
  return bench::Finish(config);
}
