// End-to-end training benchmark harness.
//
// Runs one named workload through the public training entry point
// rl::TrainAgent for about --seconds of wall time and prints the raw
// measurements as one JSON object on stdout; e2ebench/run.py turns them
// into the benchmark's metrics. Every repetition sets the workload up from
// scratch (graph, cluster, environment, grouping, agent) with the same
// seed, trains for a fixed sample budget and checks its output, so all
// repetitions of a run must find the same best placement.
//
// With --trace=1 the repetitions alternate between untraced and traced.
// A traced repetition times the calls into each layer from this file
// only: the agent is wrapped (SampleDecision / ScoreDecision /
// ToPlacement), the evaluation service is wrapped (EvaluateBatch), setup
// times the model builders, METIS and agent construction, and the
// placements the first traced repetition evaluated are re-simulated
// afterwards on a fresh ExecutionSimulator. Nothing under src/ is
// instrumented for this; the counters the program already keeps
// (support::metrics, the tensor arena, PlacementEnvironment) are read
// before and after each repetition.
//
//   e2e_harness --workload=gnmt-eagle --seed=7 --seconds=25 --trace=0
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "models/fuzz_corpus.h"
#include "nn/arena.h"
#include "sim/device.h"
#include "sim/simulator.h"

using namespace eagle;

namespace {

namespace json = support::json;
namespace metrics = support::metrics;

enum class Model { kGnmt, kBert, kFuzz40k };
enum class Grouper { kEagle, kMetis };

struct Workload {
  const char* name;
  Model model;
  bool two_node_cluster;  // 2node8 instead of the default 4-GPU+CPU box
  Grouper grouper;
  rl::Algorithm algorithm;
  int threads;            // core::EvalService evaluation threads
  int samples_per_rep;    // rl::TrainerOptions::total_samples
};

constexpr Workload kWorkloads[] = {
    {"gnmt-eagle", Model::kGnmt, false, Grouper::kEagle, rl::Algorithm::kPpo,
     2, 60},
    {"fuzz40k-metis-2node8", Model::kFuzz40k, true, Grouper::kMetis,
     rl::Algorithm::kPpo, 2, 100},
    {"bert-eagle-ppoce-serial", Model::kBert, false, Grouper::kEagle,
     rl::Algorithm::kPpoCe, 1, 100},
};

// Forward ops of the generated graph; training augmentation brings it to
// ~40k ops.
constexpr int kFuzzForwardOps = 20000;
// METIS timings on workloads whose agent learns its grouping (traced runs).
constexpr int kMetisProbes = 3;
// Setups timed before the first repetition, so each process contributes
// a median over many even when only one or two repetitions fit in the
// run: at least kMinSetups, and more until kSetupSeconds have passed (at
// most kMaxSetups) — a few milliseconds each on the zoo models.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 100;
constexpr double kSetupSeconds = 0.3;

struct SetupTimes {
  double total_s = 0.0;
  double build_s = 0.0;       // models::BuildBenchmark / BuildFuzzGraph
  double metis_s = 0.0;       // partition::MetisPartition (0: learned)
  double agent_init_s = 0.0;  // agent construction
};

// Everything one repetition trains against. The environment and agent
// point into graph/cluster, so a Fixture is heap-held and never moved.
struct Fixture {
  graph::OpGraph graph;
  sim::ClusterSpec cluster;
  std::unique_ptr<core::PlacementEnvironment> env;
  std::unique_ptr<core::PolicyAgent> agent;
  std::unique_ptr<core::EvalService> service;
  SetupTimes times;
};

std::unique_ptr<Fixture> SetUp(const Workload& workload, std::uint64_t seed) {
  support::Stopwatch total;
  auto fixture = std::make_unique<Fixture>();
  support::Stopwatch phase;
  switch (workload.model) {
    case Model::kGnmt:
      fixture->graph = models::BuildBenchmark(models::Benchmark::kGNMT);
      break;
    case Model::kBert:
      fixture->graph = models::BuildBenchmark(models::Benchmark::kBertBase);
      break;
    case Model::kFuzz40k: {
      models::FuzzGraphConfig config;
      config.num_ops = kFuzzForwardOps;
      support::Rng rng(seed);
      fixture->graph = models::BuildFuzzGraph(config, rng);
      break;
    }
  }
  fixture->times.build_s = phase.ElapsedSeconds();
  fixture->cluster = workload.two_node_cluster
                         ? sim::MakeTwoNodeNvlinkIbCluster()
                         : sim::MakeDefaultCluster();
  fixture->env = std::make_unique<core::PlacementEnvironment>(
      fixture->graph, fixture->cluster);
  const core::AgentDims dims;
  if (workload.grouper == Grouper::kMetis) {
    phase.Reset();
    graph::Grouping grouping =
        bench::MetisGrouping(fixture->graph, dims.num_groups, seed);
    fixture->times.metis_s = phase.ElapsedSeconds();
    phase.Reset();
    fixture->agent = core::MakeFixedGrouperAgent(
        fixture->graph, fixture->cluster, std::move(grouping),
        core::PlacerKind::kSeq2Seq, core::AttentionVariant::kAfter, dims,
        seed, "METIS+seq2seq");
  } else {
    phase.Reset();
    fixture->agent =
        core::MakeEagleAgent(fixture->graph, fixture->cluster, dims, seed);
  }
  fixture->times.agent_init_s = phase.ElapsedSeconds();
  fixture->service =
      std::make_unique<core::EvalService>(*fixture->env, workload.threads);
  fixture->times.total_s = total.ElapsedSeconds();
  return fixture;
}

// Wall time spent inside each layer during one traced repetition.
struct LayerTimes {
  double sample_s = 0.0;        // PolicyAgent::SampleDecision
  double to_placement_s = 0.0;  // PolicyAgent::ToPlacement
  double score_s = 0.0;         // PolicyAgent::ScoreDecision
  std::int64_t score_calls = 0;
  double eval_batch_s = 0.0;    // BatchEvaluator::EvaluateBatch
  std::int64_t evaluated = 0;
  // From EvaluateBatch's return to the round's on_round callback: the
  // trainer's reduction plus the agent update (which contains the
  // ScoreDecision calls).
  double update_s = 0.0;
  std::vector<double> sample_ms;
  bool keep_placements = false;  // collect them for ReplayJson
  std::vector<sim::Placement> placements;
  support::Stopwatch since_eval;
};

// Observer-only wrapper: forwards every call unchanged and times it.
class TimedAgent final : public core::PolicyAgent {
 public:
  TimedAgent(core::PolicyAgent& inner, LayerTimes& times)
      : inner_(&inner), times_(&times) {}

  core::Sample SampleDecision(support::Rng& rng) override {
    support::Stopwatch clock;
    core::Sample sample = inner_->SampleDecision(rng);
    const double seconds = clock.ElapsedSeconds();
    times_->sample_s += seconds;
    times_->sample_ms.push_back(seconds * 1e3);
    return sample;
  }

  Score ScoreDecision(nn::Tape& tape, const core::Sample& sample) override {
    support::Stopwatch clock;
    Score score = inner_->ScoreDecision(tape, sample);
    times_->score_s += clock.ElapsedSeconds();
    ++times_->score_calls;
    return score;
  }

  sim::Placement ToPlacement(const core::Sample& sample) const override {
    support::Stopwatch clock;
    sim::Placement placement = inner_->ToPlacement(sample);
    times_->to_placement_s += clock.ElapsedSeconds();
    return placement;
  }

  nn::ParamStore& params() override { return inner_->params(); }
  const char* name() const override { return inner_->name(); }

 private:
  core::PolicyAgent* inner_;
  LayerTimes* times_;
};

// Observer-only wrapper around the evaluation service.
class TimedEvaluator final : public core::BatchEvaluator {
 public:
  TimedEvaluator(core::BatchEvaluator& inner, LayerTimes& times)
      : inner_(&inner), times_(&times) {}

  std::vector<sim::EvalResult> EvaluateBatch(
      const std::vector<sim::Placement>& placements,
      std::vector<support::Rng>& rngs) override {
    support::Stopwatch clock;
    std::vector<sim::EvalResult> results =
        inner_->EvaluateBatch(placements, rngs);
    times_->eval_batch_s += clock.ElapsedSeconds();
    times_->evaluated += static_cast<std::int64_t>(placements.size());
    if (times_->keep_placements) {
      times_->placements.insert(times_->placements.end(), placements.begin(),
                                placements.end());
    }
    times_->since_eval.Reset();
    return results;
  }

 private:
  core::BatchEvaluator* inner_;
  LayerTimes* times_;
};

std::int64_t CounterDelta(const metrics::Snapshot& before,
                          const metrics::Snapshot& after,
                          const std::string& name) {
  const auto read = [&name](const metrics::Snapshot& snap) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? std::int64_t{0} : it->second;
  };
  return read(after) - read(before);
}

const metrics::HistogramSnapshot* FindHistogram(const metrics::Snapshot& snap,
                                                const std::string& name) {
  const auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? nullptr : &it->second;
}

std::string NumList(const std::vector<double>& values) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << (i ? "," : "") << json::Num(values[i]);
  }
  os << "]";
  return os.str();
}

// Re-evaluates the returned best placement without noise in a fresh
// environment and checks the result's bookkeeping. Returns "" when the
// output is correct, otherwise what is wrong.
std::string CheckOutput(const Fixture& fixture, const rl::TrainResult& result,
                        int budget) {
  if (result.total_samples != budget) {
    return "total_samples " + std::to_string(result.total_samples) +
           " != budget " + std::to_string(budget);
  }
  if (static_cast<int>(result.history.size()) != result.total_samples) {
    return "history has " + std::to_string(result.history.size()) +
           " points for " + std::to_string(result.total_samples) + " samples";
  }
  if (!result.found_valid) return "no valid placement found";
  core::PlacementEnvironment fresh(fixture.graph, fixture.cluster);
  const sim::EvalResult eval = fresh.Evaluate(result.best_placement, nullptr);
  if (!eval.valid) return "best placement is invalid on re-evaluation";
  if (std::bit_cast<std::uint64_t>(eval.true_per_step_seconds) !=
      std::bit_cast<std::uint64_t>(result.best_per_step_seconds)) {
    return "best placement re-evaluates to " +
           json::Num(eval.true_per_step_seconds) + " s/step, trainer said " +
           json::Num(result.best_per_step_seconds);
  }
  return "";
}

// 1-based index of the sample that found the best placement.
int BestSampleIndex(const rl::TrainResult& result) {
  for (const rl::HistoryPoint& point : result.history) {
    if (point.best_so_far_seconds == result.best_per_step_seconds) {
      return point.sample_index;
    }
  }
  return 0;
}

// Serially re-simulates `placements` on a fresh simulator configured as
// the environment configures its own (delta re-simulation on).
std::string ReplayJson(const Fixture& fixture,
                       const std::vector<sim::Placement>& placements) {
  sim::SimulatorOptions options;
  options.delta.enabled = core::EnvironmentOptions{}.delta_resim;
  const sim::ExecutionSimulator simulator(fixture.graph, fixture.cluster,
                                          options);
  const metrics::Snapshot before = metrics::TakeSnapshot();
  std::vector<double> run_ms;
  run_ms.reserve(placements.size());
  for (const sim::Placement& placement : placements) {
    support::Stopwatch clock;
    simulator.Run(placement);
    run_ms.push_back(clock.ElapsedSeconds() * 1e3);
  }
  const metrics::Snapshot after = metrics::TakeSnapshot();
  std::ostringstream os;
  os << "{\"run_ms\":" << NumList(run_ms)
     << ",\"events\":" << CounterDelta(before, after, "sim.events")
     << ",\"runs\":" << CounterDelta(before, after, "sim.runs") << "}";
  return os.str();
}

// Trains one repetition and returns its JSON record; `replay_out`, when
// non-null, receives the re-simulation record of a traced repetition.
std::string RunRepetition(const Workload& workload, std::uint64_t seed,
                          bool traced, std::string* replay_out,
                          std::vector<SetupTimes>& setups) {
  std::unique_ptr<Fixture> fixture = SetUp(workload, seed);
  setups.push_back(fixture->times);

  LayerTimes layers;
  layers.keep_placements = replay_out != nullptr;
  TimedAgent timed_agent(*fixture->agent, layers);
  TimedEvaluator timed_evaluator(*fixture->service, layers);
  core::PolicyAgent& agent =
      traced ? static_cast<core::PolicyAgent&>(timed_agent) : *fixture->agent;

  rl::TrainerOptions options = bench::PaperTrainerOptions(
      workload.algorithm, workload.samples_per_rep, seed);
  options.evaluator = traced
                          ? static_cast<core::BatchEvaluator*>(&timed_evaluator)
                          : fixture->service.get();
  std::vector<double> round_s;
  support::Stopwatch round_clock;
  options.on_round = [&](const rl::RoundStats&) {
    if (traced) layers.update_s += layers.since_eval.ElapsedSeconds();
    round_s.push_back(round_clock.ElapsedSeconds());
    round_clock.Reset();
  };

  const metrics::Snapshot before = metrics::TakeSnapshot();
  const nn::ArenaStats arena_before = nn::ArenaStatsSnapshot();
  support::Stopwatch train_clock;
  round_clock.Reset();
  const rl::TrainResult result =
      rl::TrainAgent(agent, *fixture->env, options);
  const double train_s = train_clock.ElapsedSeconds();
  const nn::ArenaStats arena_after = nn::ArenaStatsSnapshot();
  const metrics::Snapshot after = metrics::TakeSnapshot();
  const metrics::Snapshot delta = after.DeltaSince(before);

  const std::string check =
      CheckOutput(*fixture, result, workload.samples_per_rep);

  double queue_wait_s = 0.0;
  std::int64_t queue_waits = 0;
  if (const auto* wait = FindHistogram(delta, "eval.queue_wait_seconds")) {
    queue_wait_s = wait->sum;
    queue_waits = wait->count;
  }
  double ticket_busy_s = 0.0;
  if (const auto* ticket = FindHistogram(delta, "span.eval.ticket")) {
    ticket_busy_s = ticket->sum;
  }

  std::ostringstream os;
  os << "{\"traced\":" << (traced ? "true" : "false")
     << ",\"train_s\":" << json::Num(train_s)
     << ",\"round_s\":" << NumList(round_s)
     << ",\"total_samples\":" << result.total_samples
     << ",\"history_size\":" << result.history.size()
     << ",\"invalid\":" << result.invalid_samples
     << ",\"exhausted\":" << fixture->env->exhausted_evaluations()
     << ",\"best_step_s\":" << json::Num(result.best_per_step_seconds)
     << ",\"best_sample\":" << BestSampleIndex(result)
     << ",\"sim_hours\":" << json::Num(result.total_virtual_hours)
     << ",\"check\":\"" << json::Escape(check) << "\""
     << ",\"env_evaluations\":" << fixture->env->evaluations()
     << ",\"env_cache_hits\":" << fixture->env->cache_hits()
     << ",\"sim_runs\":" << CounterDelta(before, after, "sim.runs")
     << ",\"sim_delta_hits\":" << CounterDelta(before, after, "sim.delta.hits")
     << ",\"sim_delta_fallbacks\":"
     << CounterDelta(before, after, "sim.delta.fallbacks")
     << ",\"arena_acquires\":" << arena_after.acquires - arena_before.acquires
     << ",\"arena_pool_hits\":"
     << arena_after.pool_hits - arena_before.pool_hits
     << ",\"arena_fresh_allocs\":"
     << arena_after.fresh_allocs - arena_before.fresh_allocs
     << ",\"queue_wait_s\":" << json::Num(queue_wait_s)
     << ",\"queue_waits\":" << queue_waits
     << ",\"ticket_busy_s\":" << json::Num(ticket_busy_s)
     << ",\"nn_params\":" << fixture->agent->params().NumScalars()
     << ",\"graph_ops\":" << fixture->graph.num_ops()
     << ",\"graph_edges\":" << fixture->graph.num_edges();
  if (traced) {
    os << ",\"layers\":{\"sample_s\":" << json::Num(layers.sample_s)
       << ",\"sample_ms\":" << NumList(layers.sample_ms)
       << ",\"to_placement_s\":" << json::Num(layers.to_placement_s)
       << ",\"score_s\":" << json::Num(layers.score_s)
       << ",\"score_calls\":" << layers.score_calls
       << ",\"eval_batch_s\":" << json::Num(layers.eval_batch_s)
       << ",\"evaluated\":" << layers.evaluated
       << ",\"update_s\":" << json::Num(layers.update_s) << "}";
    if (layers.keep_placements) {
      *replay_out = ReplayJson(*fixture, layers.placements);
    }
  }
  os << "}";
  return os.str();
}

std::string SetupJson(const SetupTimes& times) {
  std::ostringstream os;
  os << "{\"total_s\":" << json::Num(times.total_s)
     << ",\"build_s\":" << json::Num(times.build_s)
     << ",\"metis_s\":" << json::Num(times.metis_s)
     << ",\"agent_init_s\":" << json::Num(times.agent_init_s) << "}";
  return os.str();
}

// The record's leading members: workload, seed and every setup timed.
std::string HeaderJson(const Workload& workload, std::uint64_t seed,
                       const std::vector<SetupTimes>& setups) {
  std::ostringstream os;
  os << "\"workload\":\"" << workload.name << "\",\"seed\":" << seed
     << ",\"threads\":" << workload.threads
     << ",\"samples_per_rep\":" << workload.samples_per_rep
     << ",\"setups\":[";
  for (std::size_t i = 0; i < setups.size(); ++i) {
    os << (i ? "," : "") << SetupJson(setups[i]);
  }
  os << "]";
  return os.str();
}

double PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args(
      "End-to-end training benchmark harness: trains one workload through "
      "rl::TrainAgent for about --seconds and prints raw measurements as "
      "JSON.");
  args.AddString("workload", "", "gnmt-eagle, fuzz40k-metis-2node8 or "
                                 "bert-eagle-ppoce-serial");
  args.AddInt("seed", 7, "seed for agent init, trainer and graph generation");
  args.AddDouble("seconds", 25.0, "wall time to keep starting repetitions");
  args.AddInt("trace", 0, "1: alternate untraced and traced repetitions");
  args.AddInt("setup-only", 0, "1: only time the setups, then exit");
  if (!args.Parse(argc, argv)) return 0;
  support::SetLogLevel(support::LogLevel::kWarn);

  const std::string& name = args.GetString("workload");
  const Workload* workload = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (name == candidate.name) workload = &candidate;
  }
  if (workload == nullptr) {
    std::cerr << "unknown --workload '" << name << "'\n";
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed"));
  const double seconds = args.GetDouble("seconds");
  const bool trace = args.GetInt("trace") != 0;

  support::Stopwatch run_clock;
  std::vector<SetupTimes> setups;
  while (static_cast<int>(setups.size()) < kMaxSetups &&
         (static_cast<int>(setups.size()) < kMinSetups ||
          run_clock.ElapsedSeconds() < kSetupSeconds)) {
    setups.push_back(SetUp(*workload, seed)->times);
  }
  if (args.GetInt("setup-only") != 0) {
    std::cout << "{" << HeaderJson(*workload, seed, setups) << "}\n";
    return 0;
  }

  // A learned grouper never calls METIS. A traced run still times
  // partitioning the workload's graph, after set-up and outside it, so
  // partition.metis_s reports the partition layer on every workload.
  std::vector<double> metis_probe_s;
  if (trace && workload->grouper != Grouper::kMetis) {
    const std::unique_ptr<Fixture> fixture = SetUp(*workload, seed);
    for (int i = 0; i < kMetisProbes; ++i) {
      support::Stopwatch clock;
      bench::MetisGrouping(fixture->graph, core::AgentDims{}.num_groups, seed);
      metis_probe_s.push_back(clock.ElapsedSeconds());
    }
  }

  // Keep starting repetitions while the next one is expected to finish
  // within --seconds; a traced run needs at least one of each kind.
  std::vector<std::string> reps;
  std::string replay = "null";
  double longest_rep_s = 0.0;
  for (int rep = 0;; ++rep) {
    const bool traced = trace && rep % 2 == 1;
    const bool first_traced = traced && rep == 1;
    support::Stopwatch rep_clock;
    reps.push_back(RunRepetition(*workload, seed, traced,
                                 first_traced ? &replay : nullptr, setups));
    longest_rep_s = std::max(longest_rep_s, rep_clock.ElapsedSeconds());
    const bool need_more = trace && rep < 1;
    if (!need_more && run_clock.ElapsedSeconds() + longest_rep_s > seconds) {
      break;
    }
  }

  std::cout << "{" << HeaderJson(*workload, seed, setups) << ",\"reps\":[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    std::cout << (i ? "," : "") << reps[i];
  }
  std::cout << "],\"metis_probe_s\":" << NumList(metis_probe_s)
            << ",\"replay\":" << replay
            << ",\"peak_rss_kb\":" << json::Num(PeakRssKb()) << "}\n";
  return 0;
}
