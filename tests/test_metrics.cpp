// support::metrics / support::telemetry / support::json — the telemetry
// stack — and the determinism contract behind it: metrics are observers,
// so a training run with the JSONL sink open and profiling enabled is
// bit-identical (history, best placement, parameters, checkpoint bytes)
// to a run with both off, at any thread count.
//
// Ordering note: hot-path code (env.cpp, eval_service.cpp, trainer.cpp)
// caches registry pointers in function-local statics, and ResetForTest()
// dangles every handle taken before it. The unit tests below call
// ResetForTest and therefore run BEFORE the training-based integration
// tests; nothing resets the registry after training has started.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/eagle_agent.h"
#include "core/env.h"
#include "core/eval_service.h"
#include "models/synthetic.h"
#include "nn/serialize.h"
#include "rl/checkpoint.h"
#include "rl/trainer.h"
#include "support/json.h"
#include "support/metrics.h"
#include "support/telemetry.h"
#include "support/thread_pool.h"

namespace eagle::support::metrics {
namespace {

TEST(Metrics, CounterAndGaugeRegistryBasics) {
  ResetForTest();
  Counter* a = GetCounter("test.a");
  EXPECT_EQ(a->value(), 0);
  a->Increment();
  a->Increment(41);
  EXPECT_EQ(a->value(), 42);
  // Register-on-first-use: same name, same handle; new name, fresh zero.
  EXPECT_EQ(GetCounter("test.a"), a);
  EXPECT_EQ(GetCounter("test.b")->value(), 0);

  Gauge* g = GetGauge("test.g");
  g->Set(1.5);
  EXPECT_EQ(g->value(), 1.5);
  g->Set(-3.0);
  EXPECT_EQ(g->value(), -3.0);
  EXPECT_EQ(GetGauge("test.g"), g);
}

TEST(Metrics, HistogramBucketsAndStats) {
  ResetForTest();
  Histogram* h = GetHistogram("test.h", {1.0, 2.0, 4.0});
  HistogramSnapshot empty = h->Snapshot();
  EXPECT_EQ(empty.count, 0);
  EXPECT_TRUE(std::isnan(empty.Quantile(0.5)));
  EXPECT_EQ(empty.Mean(), 0.0);

  for (double v : {0.5, 1.5, 3.0, 8.0}) h->Observe(v);
  HistogramSnapshot s = h->Snapshot();
  EXPECT_EQ(s.count, 4);
  EXPECT_EQ(s.sum, 13.0);
  EXPECT_EQ(s.min, 0.5);
  EXPECT_EQ(s.max, 8.0);
  ASSERT_EQ(s.counts.size(), 4u);  // three bounds + overflow
  EXPECT_EQ(s.counts, (std::vector<std::int64_t>{1, 1, 1, 1}));
  EXPECT_EQ(s.Mean(), 13.0 / 4.0);
  // Quantiles are interpolated from buckets but always clamped to the
  // observed range.
  EXPECT_EQ(s.Quantile(0.0), s.min);
  EXPECT_EQ(s.Quantile(1.0), s.max);
  const double median = s.Quantile(0.5);
  EXPECT_GE(median, s.min);
  EXPECT_LE(median, s.max);

  // Bucket bounds are fixed by the first registration.
  Histogram* again = GetHistogram("test.h", {100.0});
  EXPECT_EQ(again, h);
  EXPECT_EQ(again->Snapshot().bounds, (std::vector<double>{1.0, 2.0, 4.0}));
}

TEST(Metrics, DefaultLatencyBucketsAreAscending125) {
  const auto& b = DefaultLatencyBuckets();
  ASSERT_FALSE(b.empty());
  EXPECT_EQ(b.front(), 1e-6);
  EXPECT_EQ(b.back(), 500.0);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
}

TEST(Metrics, SnapshotDeltaSemantics) {
  ResetForTest();
  Counter* stable = GetCounter("test.stable");
  Counter* moving = GetCounter("test.moving");
  Gauge* gauge = GetGauge("test.gauge");
  Histogram* hist = GetHistogram("test.hist");
  stable->Increment(5);
  moving->Increment(2);
  gauge->Set(1.0);
  hist->Observe(0.25);
  const Snapshot before = TakeSnapshot();

  moving->Increment(3);
  gauge->Set(9.0);
  hist->Observe(0.5);
  Counter* fresh = GetCounter("test.fresh");  // absent in `before`
  fresh->Increment(7);
  const Snapshot after = TakeSnapshot();

  const Snapshot delta = after.DeltaSince(before);
  // Zero-delta counters are dropped; new counters count from zero.
  EXPECT_EQ(delta.counters.count("test.stable"), 0u);
  EXPECT_EQ(delta.counters.at("test.moving"), 3);
  EXPECT_EQ(delta.counters.at("test.fresh"), 7);
  // Gauges carry the later absolute value.
  EXPECT_EQ(delta.gauges.at("test.gauge"), 9.0);
  // Histogram counts/sums are differenced; min/max stay absolute.
  const HistogramSnapshot& dh = delta.histograms.at("test.hist");
  EXPECT_EQ(dh.count, 1);
  EXPECT_EQ(dh.sum, 0.5);
  EXPECT_EQ(dh.min, 0.25);
  EXPECT_EQ(dh.max, 0.5);
}

// The TSan target: hammer one counter/gauge/histogram (plus spans) from a
// pool and demand exact totals — lost updates or data races surface here
// under EAGLE_SANITIZE=thread.
TEST(Metrics, ConcurrentUpdatesAreExactAndRaceFree) {
  ResetForTest();
  EnableProfiling(true);
  constexpr int kTasks = 64;
  constexpr int kIncrementsPerTask = 500;
  ThreadPool pool(8);
  for (int t = 0; t < kTasks; ++t) {
    pool.Submit([t] {
      ScopedSpan span("test.task");
      Counter* counter = GetCounter("test.concurrent");
      Histogram* hist = GetHistogram("test.concurrent_latency");
      Gauge* gauge = GetGauge("test.concurrent_gauge");
      for (int i = 0; i < kIncrementsPerTask; ++i) {
        counter->Increment();
        hist->Observe(1e-6 * static_cast<double>(i));
        gauge->Set(static_cast<double>(t));
      }
    });
  }
  pool.Wait();
  EnableProfiling(false);
  EXPECT_EQ(GetCounter("test.concurrent")->value(), kTasks * kIncrementsPerTask);
  const HistogramSnapshot hist =
      GetHistogram("test.concurrent_latency")->Snapshot();
  EXPECT_EQ(hist.count, kTasks * kIncrementsPerTask);
  EXPECT_EQ(GetHistogram("span.test.task")->Snapshot().count, kTasks);
  EXPECT_EQ(SnapshotSpans().size(), static_cast<std::size_t>(kTasks));
}

TEST(Metrics, ScopedSpanObservesHistogramAlwaysRecordsOnlyWhenProfiling) {
  ResetForTest();
  ASSERT_FALSE(ProfilingEnabled());
  { EAGLE_SPAN("test.phase"); }
  EXPECT_EQ(GetHistogram("span.test.phase")->Snapshot().count, 1);
  EXPECT_TRUE(SnapshotSpans().empty());

  EnableProfiling(true);
  { EAGLE_SPAN("test.phase"); }
  EnableProfiling(false);
  EXPECT_EQ(GetHistogram("span.test.phase")->Snapshot().count, 2);
  const auto spans = SnapshotSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "test.phase");
  EXPECT_GE(spans[0].duration_seconds, 0.0);
}

TEST(Metrics, SpansToChromeTraceIsParseableJson) {
  std::vector<SpanRecord> spans;
  spans.push_back(SpanRecord{"train.update", 3, 1.5, 0.25});
  spans.push_back(SpanRecord{"checkpoint", 0, 2.0, 0.125});
  const std::string trace = SpansToChromeTrace(spans);

  std::string error;
  const json::Value root = json::Value::Parse(trace, &error);
  ASSERT_TRUE(root.is_object()) << error;
  const json::Value* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // Metadata event + the two slices.
  ASSERT_EQ(events->items().size(), 3u);
  const json::Value& slice = events->items()[1];
  EXPECT_EQ(slice.StringOr("ph", ""), "X");
  EXPECT_EQ(slice.StringOr("name", ""), "train.update");
  // Category is the span-name prefix; a dotless name is its own category.
  EXPECT_EQ(slice.StringOr("cat", ""), "train");
  EXPECT_EQ(events->items()[2].StringOr("cat", ""), "checkpoint");
  EXPECT_EQ(slice.NumberOr("tid", -1), 3.0);
  // Chrome-trace timestamps are microseconds.
  EXPECT_EQ(slice.NumberOr("ts", 0), 1.5e6);
  EXPECT_EQ(slice.NumberOr("dur", 0), 0.25e6);
}

TEST(Metrics, ThreadTagsAreSmallAndStable) {
  const int tag = CurrentThreadTag();
  EXPECT_GE(tag, 0);
  EXPECT_EQ(CurrentThreadTag(), tag);
  // The shared clock is monotone.
  const double t0 = NowSeconds();
  EXPECT_GE(NowSeconds(), t0);
}

}  // namespace
}  // namespace eagle::support::metrics

namespace eagle::support::json {
namespace {

TEST(Json, ParsesScalarsArraysAndObjects) {
  std::string error;
  const Value v = Value::Parse(
      R"({"a":[1,-2.5,true,null,"x\"y"],"nested":{"c":-3e2},"s":""})",
      &error);
  ASSERT_TRUE(v.is_object()) << error;
  const Value* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->items().size(), 5u);
  EXPECT_EQ(a->items()[0].number(), 1.0);
  EXPECT_EQ(a->items()[1].number(), -2.5);
  EXPECT_TRUE(a->items()[2].bool_value());
  EXPECT_TRUE(a->items()[3].is_null());
  EXPECT_EQ(a->items()[4].string_value(), "x\"y");
  EXPECT_EQ(v.Find("nested")->NumberOr("c", 0.0), -300.0);
  EXPECT_EQ(v.StringOr("s", "fallback"), "");
  EXPECT_EQ(v.StringOr("missing", "fallback"), "fallback");
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(Json, ReportsParseErrorsWithPosition) {
  std::string error;
  const Value v = Value::Parse("{\"a\": tru", &error);
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(error.empty());
}

TEST(Json, NumRoundTripsAndMapsNonFiniteToNull) {
  EXPECT_EQ(Num(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(Num(std::nan("")), "null");
  for (double v : {0.0, 1.5, -3.25, 1e-9, 12345678.5}) {
    std::string error;
    const Value parsed = Value::Parse(Num(v), &error);
    ASSERT_TRUE(parsed.is_number()) << Num(v) << ": " << error;
    EXPECT_EQ(parsed.number(), v);
  }
  const std::string escaped = Escape("a\"b\\c\n");
  std::string err;
  const Value round = Value::Parse("\"" + escaped + "\"", &err);
  ASSERT_TRUE(round.is_string()) << err;
  EXPECT_EQ(round.string_value(), "a\"b\\c\n");
}

}  // namespace
}  // namespace eagle::support::json

namespace eagle::support::telemetry {
namespace {

TEST(Telemetry, WritesFlushedParseableJsonl) {
  const std::string path = ::testing::TempDir() + "/eagle_telemetry_test.jsonl";
  std::filesystem::remove(path);
  ASSERT_TRUE(OpenRunLog(path));
  EXPECT_TRUE(Enabled());
  EXPECT_EQ(Path(), path);
  WriteLine("{\"event\":\"run_start\",\"seed\":5}");
  WriteLine("{\"event\":\"run_end\",\"ok\":true}");
  EXPECT_TRUE(Close());
  EXPECT_FALSE(Enabled());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    std::string error;
    EXPECT_FALSE(json::Value::Parse(line, &error).is_null())
        << line << ": " << error;
    ++lines;
  }
  EXPECT_EQ(lines, 2);
  std::filesystem::remove(path);
}

TEST(Telemetry, OpenFailureIsReportedAndLeavesSinkDisabled) {
  EXPECT_FALSE(OpenRunLog("/nonexistent_dir_for_eagle_tests/run.jsonl"));
  EXPECT_FALSE(Enabled());
  WriteLine("{\"dropped\":true}");  // no-op, must not crash
  // The failed open is latched so the bench exit code reflects the lost
  // telemetry, not just the log line.
  EXPECT_FALSE(Close());
  // A successful reopen clears the latch.
  const std::string path = ::testing::TempDir() + "/eagle_telemetry_relatch.jsonl";
  ASSERT_TRUE(OpenRunLog(path));
  EXPECT_TRUE(Close());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace eagle::support::telemetry

// ---------------------------------------------------------------------------
// Integration: telemetry/profiling on vs off is bit-identical training.
// Mirrors the test_eval_service fixture (faults + noise on so every RNG
// stream is live). No ResetForTest below this line — see header comment.

namespace eagle::core {
namespace {

namespace metrics = support::metrics;
namespace telemetry = support::telemetry;

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

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing file: " << path;
  std::ostringstream blob;
  blob << in.rdbuf();
  return blob.str();
}

struct RunOutput {
  rl::TrainResult result;
  std::string params;
  std::string checkpoint;  // final .ckpt bytes
  int attempts = 0;
  int retries = 0;
  int exhausted = 0;
  double backoff_seconds = 0.0;
};

// One full training run. With `observers` set, the run carries every
// telemetry hook the bench layer uses: JSONL sink open, profiling spans
// recorded, and an on_round callback writing a line per round.
RunOutput RunTraining(const Fixture& fix, int threads, int total_samples,
                      bool observers, const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/eagle_metrics_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  auto agent = fix.Agent(21);
  PlacementEnvironment env(fix.graph, fix.cluster, fix.EnvOptions());
  EvalService service(env, threads);
  auto options = fix.Options(total_samples);
  options.evaluator = &service;
  options.checkpoint_dir = dir;
  options.checkpoint_name = "run";
  options.checkpoint_interval = 10;

  std::vector<rl::RoundStats> rounds;
  if (observers) {
    EXPECT_TRUE(telemetry::OpenRunLog(dir + "/run.jsonl"));
    metrics::EnableProfiling(true);
    options.on_round = [&rounds](const rl::RoundStats& stats) {
      rounds.push_back(stats);
      telemetry::WriteLine(
          "{\"event\":\"round\",\"round\":" + std::to_string(stats.round_index) +
          ",\"total_samples\":" + std::to_string(stats.total_samples) +
          ",\"sim_hours\":" + support::json::Num(stats.virtual_hours) + "}");
    };
  }

  RunOutput out;
  out.result = rl::TrainAgent(*agent, env, options);

  if (observers) {
    metrics::EnableProfiling(false);
    EXPECT_TRUE(telemetry::Close());

    // The observer side-channel itself must be coherent: one callback per
    // round, rounds numbered densely, samples adding up, and a parseable
    // JSONL line per round.
    EXPECT_FALSE(rounds.empty());
    int samples = 0;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      EXPECT_EQ(rounds[i].round_index, static_cast<int>(i));
      samples += rounds[i].samples_in_round;
    }
    EXPECT_EQ(samples, total_samples);
    if (!rounds.empty()) {
      EXPECT_EQ(rounds.back().total_samples, total_samples);
      EXPECT_EQ(rounds.back().best_per_step_seconds,
                out.result.best_per_step_seconds);
    }

    std::ifstream in(dir + "/run.jsonl");
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
      std::string error;
      EXPECT_TRUE(support::json::Value::Parse(line, &error).is_object())
          << line << ": " << error;
      ++lines;
    }
    EXPECT_EQ(lines, rounds.size());
  }

  std::ostringstream params;
  nn::SaveParams(agent->params(), params);
  out.params = params.str();
  out.checkpoint = ReadFileBytes(rl::CheckpointFilePath(dir, "run"));
  out.attempts = env.attempts();
  out.retries = env.retries();
  out.exhausted = env.exhausted_evaluations();
  out.backoff_seconds = env.backoff_seconds_total();
  std::filesystem::remove_all(dir);
  return out;
}

void ExpectBitIdentical(const RunOutput& a, const RunOutput& b,
                        const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.result.total_samples, b.result.total_samples);
  EXPECT_EQ(a.result.invalid_samples, b.result.invalid_samples);
  EXPECT_EQ(a.result.found_valid, b.result.found_valid);
  // Exact double equality throughout: "close enough" would mean the
  // telemetry observers leaked wall-clock into training state.
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
  EXPECT_EQ(a.checkpoint, b.checkpoint);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.exhausted, b.exhausted);
  EXPECT_EQ(a.backoff_seconds, b.backoff_seconds);
}

TEST(MetricsIntegration, TelemetryAndProfilingPreserveBitIdentity) {
  Fixture fix;
  const auto off1 = RunTraining(fix, 1, 40, /*observers=*/false, "off1");
  const auto on1 = RunTraining(fix, 1, 40, /*observers=*/true, "on1");
  const auto off8 = RunTraining(fix, 8, 40, /*observers=*/false, "off8");
  const auto on8 = RunTraining(fix, 8, 40, /*observers=*/true, "on8");
  ExpectBitIdentical(off1, on1, "telemetry on vs off, 1 thread");
  ExpectBitIdentical(off8, on8, "telemetry on vs off, 8 threads");
  ExpectBitIdentical(off1, off8, "1 vs 8 threads");

  // The runs above drove the whole wired surface; the registry must have
  // seen it.
  EXPECT_GT(metrics::GetCounter("env.evaluations")->value(), 0);
  EXPECT_GT(metrics::GetCounter("env.attempts")->value(), 0);
  EXPECT_GT(metrics::GetCounter("train.rounds")->value(), 0);
  EXPECT_GT(metrics::GetCounter("sim.runs")->value(), 0);
  for (const char* span :
       {"span.train.sample", "span.train.eval", "span.train.reduce",
        "span.train.update", "span.train.checkpoint", "span.eval.batch",
        "span.eval.ticket", "span.adam.step"}) {
    EXPECT_GT(metrics::GetHistogram(span)->Snapshot().count, 0) << span;
  }
}

}  // namespace
}  // namespace eagle::core
