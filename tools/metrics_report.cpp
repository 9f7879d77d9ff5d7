// Summarizes a --telemetry-out JSONL run log (bench_common.h schema)
// into support::table reports:
//
//   $ ./metrics_report --in run.jsonl [--csv prefix]
//
// Per training run (one run_start/round.../run_end sequence): sample and
// round counts, simulated hours, best per-step time, wall time, eval
// latency percentiles (p50/p95/p99 interpolated from the span.eval.ticket
// histogram buckets) and retry rate. A second table
// aggregates profiler spans by phase across every run in the file.
//
// Exits non-zero on an unreadable file, a JSON parse error, or a log with
// no run records — so CI can assert the telemetry artifact is sound.
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "support/args.h"
#include "support/json.h"
#include "support/metrics.h"
#include "support/table.h"

using namespace eagle;
namespace json = support::json;

namespace {

// One completed training run, reassembled from its run_end record (which
// carries the per-run counter and full-bucket histogram deltas).
struct RunSummary {
  std::string label;
  int total_samples = 0;
  int rounds = 0;
  double sim_hours = 0.0;
  double best_per_step_s = 0.0;
  bool found_valid = false;
  double wall_seconds = 0.0;
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, support::metrics::HistogramSnapshot> histograms;
};

bool ParseHistogram(const json::Value& v,
                    support::metrics::HistogramSnapshot* out) {
  const json::Value* bounds = v.Find("bounds");
  const json::Value* counts = v.Find("counts");
  if (bounds == nullptr || counts == nullptr || !bounds->is_array() ||
      !counts->is_array()) {
    return false;
  }
  out->count = static_cast<std::int64_t>(v.NumberOr("count", 0.0));
  out->sum = v.NumberOr("sum", 0.0);
  out->min = v.NumberOr("min", 0.0);
  out->max = v.NumberOr("max", 0.0);
  for (const json::Value& b : bounds->items()) {
    if (!b.is_number()) return false;
    out->bounds.push_back(b.number());
  }
  for (const json::Value& c : counts->items()) {
    if (!c.is_number()) return false;
    out->counts.push_back(static_cast<std::int64_t>(c.number()));
  }
  return out->counts.size() == out->bounds.size() + 1;
}

std::string Pct(double numerator, double denominator) {
  if (denominator <= 0.0) return "n/a";
  return support::Table::Num(100.0 * numerator / denominator, 1) + "%";
}

std::string QuantileMs(const support::metrics::HistogramSnapshot* hist,
                       double q) {
  if (hist == nullptr || hist->count <= 0) return "n/a";
  return support::Table::Num(hist->Quantile(q) * 1e3, 2);
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args("EAGLE run-telemetry summarizer");
  args.AddString("in", "run.jsonl", "telemetry JSONL file (--telemetry-out)");
  args.AddString("csv", "", "CSV output path prefix (empty: no CSV)");
  if (!args.Parse(argc, argv)) return 0;

  const std::string path = args.GetString("in");
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "metrics_report: cannot open %s\n", path.c_str());
    return 1;
  }

  std::vector<RunSummary> runs;
  int open_rounds = 0;  // rounds seen since the last run_end
  int line_number = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::string error;
    const json::Value value = json::Value::Parse(line, &error);
    if (!value.is_object()) {
      std::fprintf(stderr, "metrics_report: %s:%d: bad JSON (%s)\n",
                   path.c_str(), line_number, error.c_str());
      return 1;
    }
    const std::string event = value.StringOr("event", "");
    if (event == "round") {
      ++open_rounds;
    } else if (event == "run_end") {
      RunSummary run;
      run.label = value.StringOr("model", "?") + " / " +
                  value.StringOr("agent", "?") + " / " +
                  value.StringOr("algorithm", "?");
      run.total_samples =
          static_cast<int>(value.NumberOr("total_samples", 0.0));
      run.rounds = open_rounds;
      open_rounds = 0;
      run.sim_hours = value.NumberOr("sim_hours", 0.0);
      const json::Value* best = value.Find("best_per_step_s");
      run.found_valid = best != nullptr && best->is_number();
      if (run.found_valid) run.best_per_step_s = best->number();
      run.wall_seconds = value.NumberOr("wall_seconds", 0.0);
      if (const json::Value* counters = value.Find("counters")) {
        for (const auto& [name, v] : counters->fields()) {
          if (v.is_number()) {
            run.counters[name] = static_cast<std::int64_t>(v.number());
          }
        }
      }
      if (const json::Value* histograms = value.Find("histograms")) {
        for (const auto& [name, v] : histograms->fields()) {
          support::metrics::HistogramSnapshot hist;
          if (ParseHistogram(v, &hist)) run.histograms[name] = hist;
        }
      }
      runs.push_back(std::move(run));
    }
  }
  if (runs.empty()) {
    std::fprintf(stderr,
                 "metrics_report: %s holds no run_end records — not a "
                 "telemetry log, or the run died before finishing\n",
                 path.c_str());
    return 1;
  }

  support::Table summary("run summary (" + path + ")");
  summary.SetHeader({"run", "samples", "rounds", "sim h", "best s/step",
                     "wall s", "eval p50 ms", "p95 ms", "p99 ms",
                     "retry rate"});
  // Phase aggregation across runs: total calls and seconds per span name.
  std::map<std::string, std::pair<std::int64_t, double>> phases;
  for (const RunSummary& run : runs) {
    auto counter = [&](const char* name) -> double {
      const auto it = run.counters.find(name);
      return it == run.counters.end() ? 0.0
                                      : static_cast<double>(it->second);
    };
    const auto eval_it = run.histograms.find("span.eval.ticket");
    const support::metrics::HistogramSnapshot* eval =
        eval_it == run.histograms.end() ? nullptr : &eval_it->second;
    summary.AddRow(
        {run.label, std::to_string(run.total_samples),
         std::to_string(run.rounds), support::Table::Num(run.sim_hours, 2),
         run.found_valid ? support::Table::Num(run.best_per_step_s)
                         : std::string("OOM"),
         support::Table::Num(run.wall_seconds, 1), QuantileMs(eval, 0.50),
         QuantileMs(eval, 0.95), QuantileMs(eval, 0.99),
         Pct(counter("env.retries"), counter("env.attempts"))});
    for (const auto& [name, hist] : run.histograms) {
      if (name.rfind("span.", 0) != 0) continue;
      auto& [calls, seconds] = phases[name.substr(5)];
      calls += hist.count;
      seconds += hist.sum;
    }
  }
  std::fputs(summary.ToString().c_str(), stdout);

  support::Table phase_table("spans by phase (all runs)");
  phase_table.SetHeader({"phase", "calls", "total s", "mean ms"});
  for (const auto& [name, totals] : phases) {
    const auto& [calls, seconds] = totals;
    phase_table.AddRow(
        {name, std::to_string(calls), support::Table::Num(seconds, 3),
         calls > 0
             ? support::Table::Num(seconds / static_cast<double>(calls) * 1e3,
                                   3)
             : "n/a"});
  }
  std::fputs(phase_table.ToString().c_str(), stdout);

  const std::string csv_prefix = args.GetString("csv");
  if (!csv_prefix.empty()) {
    bool ok = summary.WriteCsv(csv_prefix + "runs.csv");
    ok = phase_table.WriteCsv(csv_prefix + "phases.csv") && ok;
    if (!ok) {
      std::fprintf(stderr, "metrics_report: failed to write CSV output\n");
      return 1;
    }
  }
  return 0;
}
