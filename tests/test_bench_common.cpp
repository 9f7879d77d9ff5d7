// Tests for the bench harness plumbing (flag parsing, context creation,
// fixed groupings, result formatting) — the shared code every paper
// table/figure is generated through.
#include <gtest/gtest.h>

#include "bench/bench_common.h"

namespace eagle::bench {
namespace {

TEST(BenchFlags, DefaultsAndModelList) {
  support::ArgParser args("t");
  AddCommonFlags(args, 123);
  const char* argv[] = {"prog"};
  ASSERT_TRUE(args.Parse(1, const_cast<char**>(argv)));
  const BenchConfig config = ReadCommonFlags(args);
  EXPECT_EQ(config.samples, 123);
  EXPECT_EQ(config.seed, 7u);
  EXPECT_FALSE(config.full);
  ASSERT_EQ(config.benchmarks.size(), 3u);
  EXPECT_EQ(config.benchmarks[0], models::Benchmark::kInceptionV3);
  EXPECT_EQ(config.benchmarks[2], models::Benchmark::kBertBase);
}

TEST(BenchFlags, SubsetAndFull) {
  support::ArgParser args("t");
  AddCommonFlags(args, 100);
  const char* argv[] = {"prog", "--models=gnmt,bert", "--full",
                        "--samples=9", "--seed=42"};
  ASSERT_TRUE(args.Parse(5, const_cast<char**>(argv)));
  const BenchConfig config = ReadCommonFlags(args);
  ASSERT_EQ(config.benchmarks.size(), 2u);
  EXPECT_EQ(config.benchmarks[0], models::Benchmark::kGNMT);
  EXPECT_TRUE(config.full);
  EXPECT_EQ(config.dims().num_groups, 256);  // paper scale
  EXPECT_EQ(config.samples, 9);
  EXPECT_EQ(config.seed, 42u);
}

TEST(BenchFlags, UnknownModelThrows) {
  support::ArgParser args("t");
  AddCommonFlags(args, 100);
  const char* argv[] = {"prog", "--models=alexnet"};
  ASSERT_TRUE(args.Parse(2, const_cast<char**>(argv)));
  EXPECT_THROW(ReadCommonFlags(args), std::logic_error);
}

TEST(BenchContext, BuildsEnvironmentPerBenchmark) {
  auto context = MakeContext(models::Benchmark::kInceptionV3, BenchConfig{});
  EXPECT_GT(context.graph.num_ops(), 0);
  EXPECT_EQ(context.cluster.num_devices(), 5);
  EXPECT_GT(context.env->InvalidPenaltySeconds(), 0.0);
}

TEST(BenchGroupings, MetisAndFluidValid) {
  auto context = MakeContext(models::Benchmark::kInceptionV3, BenchConfig{});
  for (int k : {8, 24}) {
    const auto metis = MetisGrouping(context.graph, k, 1);
    const auto fluid = FluidGrouping(context.graph, k, 1);
    graph::ValidateGrouping(context.graph, metis, k);
    graph::ValidateGrouping(context.graph, fluid, k);
  }
}

TEST(BenchFormat, ResultsAndEvals) {
  rl::TrainResult result;
  EXPECT_EQ(FormatResult(result), "OOM");  // no valid placement found
  result.found_valid = true;
  result.best_per_step_seconds = 1.2345;
  EXPECT_EQ(FormatResult(result), "1.234");

  sim::EvalResult eval;
  EXPECT_EQ(FormatEval(eval), "OOM");
  eval.valid = true;
  eval.true_per_step_seconds = 0.5;
  EXPECT_EQ(FormatEval(eval), "0.500");
}

TEST(BenchTrainerOptions, PaperHyperparameters) {
  const auto options =
      PaperTrainerOptions(rl::Algorithm::kPpoCe, 300, 9);
  EXPECT_EQ(options.minibatch_size, 10);
  EXPECT_DOUBLE_EQ(options.ppo.clip_epsilon, 0.3);
  EXPECT_EQ(options.ppo.epochs, 4);
  EXPECT_DOUBLE_EQ(options.ppo.entropy_coef, 0.01);
  EXPECT_EQ(options.ce.num_elites, 5);
  EXPECT_EQ(options.ce_interval, 50);
  EXPECT_DOUBLE_EQ(options.adam.lr, 0.01);
  EXPECT_DOUBLE_EQ(options.adam.clip_norm, 1.0);
  EXPECT_EQ(options.total_samples, 300);
  EXPECT_EQ(options.seed, 9u);
}

}  // namespace
}  // namespace eagle::bench
