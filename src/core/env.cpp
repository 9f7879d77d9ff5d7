#include "core/env.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>

#include "sim/cost_model.h"
#include "support/check.h"
#include "support/metrics.h"

namespace eagle::core {

namespace {

// Registry handles resolved once; the objects live for the process, so
// the raw pointers stay valid. These counters are observers only — the
// authoritative, checkpointed statistics remain the members guarded by
// state_mutex_.
struct EnvMetrics {
  support::metrics::Counter* evaluations =
      support::metrics::GetCounter("env.evaluations");
  support::metrics::Counter* attempts =
      support::metrics::GetCounter("env.attempts");
  support::metrics::Counter* transient_failures =
      support::metrics::GetCounter("env.transient_failures");
  support::metrics::Counter* timeouts =
      support::metrics::GetCounter("env.timeouts");
  support::metrics::Counter* retries =
      support::metrics::GetCounter("env.retries");
  support::metrics::Counter* exhausted =
      support::metrics::GetCounter("env.exhausted_evaluations");
  support::metrics::Histogram* backoff_seconds =
      support::metrics::GetHistogram("env.backoff_seconds");
};

EnvMetrics& Metrics() {
  static EnvMetrics m;
  return m;
}

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
void ReadPod(std::istream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  EAGLE_CHECK_MSG(in, "truncated environment state");
}

}  // namespace

PlacementEnvironment::PlacementEnvironment(const graph::OpGraph& graph,
                                           const sim::ClusterSpec& cluster,
                                           EnvironmentOptions options)
    : graph_(&graph),
      cluster_(&cluster),
      options_(options),
      session_(graph, cluster, options.measurement, options.simulator),
      fault_rng_(options.faults.seed) {
  options_.retry.Validate();
  if (options_.faults.enabled()) {
    injector_ = std::make_unique<sim::FaultInjector>(options_.faults, cluster);
  }
  // Serialized lower bound on the fastest device (ignoring memory): the
  // "if it all fit on one GPU" time, scaled into the invalid penalty.
  const sim::CostModel cost(cluster);
  double best = std::numeric_limits<double>::infinity();
  for (sim::DeviceId d = 0; d < cluster.num_devices(); ++d) {
    double total = 0.0;
    for (graph::OpId i = 0; i < graph.num_ops(); ++i) {
      total += cost.ComputeSeconds(graph.op(i), d);
    }
    best = std::min(best, total);
  }
  penalty_seconds_ = options_.penalty_factor * best;
  EAGLE_CHECK(penalty_seconds_ > 0.0);
}

EvalTicket PlacementEnvironment::PrepareEvaluation() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  ++evaluations_;
  Metrics().evaluations->Increment();
  EvalTicket ticket;
  if (injector_ != nullptr) {
    // One master-stream draw per evaluation, in dispatch order: the
    // per-sample child then feeds every retry attempt and backoff jitter
    // of this evaluation, on whichever thread it lands.
    ticket.fault_rng = fault_rng_.Split();
  }
  return ticket;
}

EvalOutcome PlacementEnvironment::EvaluateTicket(
    const sim::Placement& placement, EvalTicket& ticket,
    support::Rng* rng) const {
  EvalOutcome outcome;
  // Noise is applied below, per evaluation, on top of the noiseless
  // simulator result, so repeated visits look like independent
  // measurements.
  const sim::EvalResult clean = session_.Evaluate(placement, nullptr);

  if (injector_ == nullptr) {
    outcome.attempts = 1;
    sim::EvalResult result = clean;
    if (result.valid && rng != nullptr &&
        options_.measurement.noise_stddev > 0.0) {
      const int measured = options_.measurement.total_steps -
                           options_.measurement.warmup_steps;
      double sum = 0.0;
      for (int i = 0; i < measured; ++i) {
        sum += result.true_per_step_seconds *
               sim::NoiseFactor(options_.measurement.noise_stddev, *rng);
      }
      result.per_step_seconds = sum / measured;
    }
    outcome.result = result;
    return outcome;
  }

  outcome.result =
      EvaluateWithRetries(placement, clean, rng, ticket.fault_rng, &outcome);
  return outcome;
}

sim::EvalResult PlacementEnvironment::EvaluateWithRetries(
    const sim::Placement& placement, const sim::EvalResult& clean,
    support::Rng* noise_rng, support::Rng& fault_rng,
    EvalOutcome* outcome) const {
  const support::RetryPolicy& retry = options_.retry;
  double cost_so_far = 0.0;
  for (int attempt = 1; attempt <= retry.max_attempts; ++attempt) {
    ++outcome->attempts;
    const sim::FaultDraw draw = injector_->Draw(fault_rng);
    sim::EvalResult result =
        session_.EvaluateWithFaults(placement, draw, noise_rng);
    bool attempt_failed = result.failed;
    double attempt_cost = result.measurement_cost_seconds;
    if (attempt_failed) {
      ++outcome->transient_failures;
    } else if (retry.attempt_timeout_seconds > 0.0 &&
               attempt_cost > retry.attempt_timeout_seconds) {
      // The harness kills sessions that overrun the measurement budget
      // (e.g. a pathological straggler): the attempt charges exactly the
      // timeout, then counts as a failure.
      attempt_failed = true;
      attempt_cost = retry.attempt_timeout_seconds;
      ++outcome->timeouts;
    }
    cost_so_far += attempt_cost;
    if (!attempt_failed) {
      // The healthy machine's per-step time is the ground truth used for
      // best-placement tracking; what the agent *observed* stays faulty.
      result.valid = clean.valid;
      result.true_per_step_seconds = clean.true_per_step_seconds;
      result.attempts = attempt;
      result.measurement_cost_seconds = cost_so_far;
      return result;
    }
    if (attempt < retry.max_attempts) {
      ++outcome->retries;
      const double backoff = retry.BackoffSeconds(attempt, &fault_rng);
      outcome->backoff_seconds += backoff;
      cost_so_far += backoff;
    }
  }
  // Persistent failure: degrade into the invalid-placement penalty so
  // training continues instead of aborting.
  ++outcome->exhausted;
  sim::EvalResult result;
  result.valid = false;
  result.failed = true;
  result.attempts = retry.max_attempts;
  result.measurement_cost_seconds = cost_so_far;
  return result;
}

void PlacementEnvironment::CommitEvaluation(const EvalOutcome& outcome) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  attempts_ += outcome.attempts;
  transient_failures_ += outcome.transient_failures;
  timeouts_ += outcome.timeouts;
  retries_ += outcome.retries;
  exhausted_evaluations_ += outcome.exhausted;
  // Doubles don't commute bit-exactly: summed here, in commit order, so
  // an N-thread run reports the same total as a serial one.
  backoff_seconds_total_ += outcome.backoff_seconds;
  EnvMetrics& m = Metrics();
  m.attempts->Increment(outcome.attempts);
  m.transient_failures->Increment(outcome.transient_failures);
  m.timeouts->Increment(outcome.timeouts);
  m.retries->Increment(outcome.retries);
  m.exhausted->Increment(outcome.exhausted);
  if (outcome.retries > 0) {
    m.backoff_seconds->Observe(outcome.backoff_seconds);
  }
}

sim::EvalResult PlacementEnvironment::Evaluate(
    const sim::Placement& placement, support::Rng* rng) {
  EvalTicket ticket = PrepareEvaluation();
  EvalOutcome outcome = EvaluateTicket(placement, ticket, rng);
  CommitEvaluation(outcome);
  return outcome.result;
}

double PlacementEnvironment::backoff_seconds_total() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return backoff_seconds_total_;
}

void PlacementEnvironment::SerializeState(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  const auto rng_state = fault_rng_.state();
  for (std::uint64_t s : rng_state) WritePod(out, s);
  // Former cache-hit counter: a zero keeps the blob layout checkpoints use.
  WritePod(out, int{0});
  WritePod(out, evaluations_);
  WritePod(out, attempts_);
  WritePod(out, transient_failures_);
  WritePod(out, timeouts_);
  WritePod(out, retries_);
  WritePod(out, exhausted_evaluations_);
  WritePod(out, backoff_seconds_total_);
}

void PlacementEnvironment::DeserializeState(std::istream& in) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  std::array<std::uint64_t, 4> rng_state{};
  for (auto& s : rng_state) ReadPod(in, s);
  fault_rng_.set_state(rng_state);
  // Former cache-hit counter: older checkpoints hold a count here; skip it.
  int retired_slot = 0;
  ReadPod(in, retired_slot);
  ReadPod(in, evaluations_);
  ReadPod(in, attempts_);
  ReadPod(in, transient_failures_);
  ReadPod(in, timeouts_);
  ReadPod(in, retries_);
  ReadPod(in, exhausted_evaluations_);
  ReadPod(in, backoff_seconds_total_);
}

}  // namespace eagle::core
