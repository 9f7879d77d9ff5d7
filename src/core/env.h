// PlacementEnvironment: the environment the RL agents interact with.
//
// Wraps a benchmark graph + cluster + MeasurementSession and supplies the
// invalid-placement penalty used by reward shaping. Every evaluation is
// one noiseless simulator run; the simulator is deterministic, so a
// revisited placement gets the same result without any memoization.
//
// Robustness layer: when EnvironmentOptions::faults is enabled, every
// evaluation becomes a retry loop over fault-injected measurement
// attempts (sim::FaultInjector) governed by a support::RetryPolicy —
// session crashes, down devices and timed-out stragglers are retried
// with exponential backoff, every attempt and backoff wait charging the
// virtual clock; an evaluation that exhausts its retries degrades into
// the invalid-placement penalty instead of aborting training. Retry /
// failure counters are exposed for reporting, and the mutable fault
// stream serializes into training checkpoints for crash-safe resume.
//
// Concurrency: evaluation is split into a three-phase protocol so that
// core::EvalService can run the expensive middle phase on worker threads
// while the run stays bit-identical to a serial one:
//
//   1. PrepareEvaluation (serial, dispatch order) — counts the
//      evaluation and splits a per-sample child off the fault stream.
//   2. EvaluateTicket (any thread) — const: simulator runs, fault-
//      injected retry attempts and measurement noise touch only the
//      ticket's private RNGs; shared counters are never written.
//   3. CommitEvaluation (serial, submission order) — applies the counter
//      and backoff deltas, replaying exactly what an interleaved serial
//      run would have done.
//
// Evaluate() is Prepare+Evaluate+Commit back to back, so serial callers,
// a 1-thread service and an N-thread service all advance the same
// streams in the same order.
#pragma once

#include <iosfwd>
#include <memory>
#include <mutex>

#include "core/policy.h"
#include "sim/fault.h"
#include "sim/measurement.h"
#include "support/retry.h"

namespace eagle::core {

struct EnvironmentOptions {
  sim::MeasurementOptions measurement;
  sim::SimulatorOptions simulator;
  // Fault injection (all-zero rates: disabled) and the retry policy that
  // governs failed measurement attempts.
  sim::FaultProfile faults;
  support::RetryPolicy retry;
  // Invalid placements are charged penalty_factor × the serialized
  // single-fastest-device per-step lower bound.
  double penalty_factor = 10.0;
  // Inert; its only reader is e2ebench/harness.cpp:298. Delete both together.
  bool delta_resim = true;
};

// One in-flight evaluation's private context, split off serially at
// dispatch time so concurrent evaluations share no mutable state.
struct EvalTicket {
  support::Rng fault_rng;  // per-sample child of the fault stream
};

// One evaluation's result plus the deterministic counter deltas the
// commit phase applies in submission order.
struct EvalOutcome {
  sim::EvalResult result;
  int attempts = 0;
  int transient_failures = 0;
  int timeouts = 0;
  int retries = 0;
  int exhausted = 0;
  double backoff_seconds = 0.0;
};

class PlacementEnvironment : public Environment {
 public:
  PlacementEnvironment(const graph::OpGraph& graph,
                       const sim::ClusterSpec& cluster,
                       EnvironmentOptions options = {});

  sim::EvalResult Evaluate(const sim::Placement& placement,
                           support::Rng* rng) override;
  double InvalidPenaltySeconds() const override { return penalty_seconds_; }

  // Three-phase evaluation protocol (see file comment). Prepare/Commit
  // take the state lock and may be called from any thread, but the
  // determinism contract requires Prepare calls in dispatch order and
  // Commit calls in submission order; EvaluateTicket is const and safe
  // to run concurrently.
  EvalTicket PrepareEvaluation();
  EvalOutcome EvaluateTicket(const sim::Placement& placement,
                             EvalTicket& ticket, support::Rng* rng) const;
  void CommitEvaluation(const EvalOutcome& outcome);

  // Fault stream + robustness counters, for checkpoint/resume.
  void SerializeState(std::ostream& out) const override;
  void DeserializeState(std::istream& in) override;

  const graph::OpGraph& graph() const { return *graph_; }
  const sim::ClusterSpec& cluster() const { return *cluster_; }
  const sim::MeasurementSession& session() const { return session_; }

  // Inert; its only reader is e2ebench/harness.cpp:383. Delete both together.
  int cache_hits() const { return 0; }
  int evaluations() const { return ReadCounter(evaluations_); }

  // Robustness counters (all zero when faults are disabled).
  int attempts() const { return ReadCounter(attempts_); }
  int transient_failures() const { return ReadCounter(transient_failures_); }
  int timeouts() const { return ReadCounter(timeouts_); }
  int retries() const { return ReadCounter(retries_); }
  // Evaluations that exhausted every retry and degraded to the penalty.
  int exhausted_evaluations() const {
    return ReadCounter(exhausted_evaluations_);
  }
  double backoff_seconds_total() const;

 private:
  sim::EvalResult EvaluateWithRetries(const sim::Placement& placement,
                                      const sim::EvalResult& clean,
                                      support::Rng* noise_rng,
                                      support::Rng& fault_rng,
                                      EvalOutcome* outcome) const;
  int ReadCounter(const int& counter) const {
    std::lock_guard<std::mutex> lock(state_mutex_);
    return counter;
  }

  const graph::OpGraph* graph_;
  const sim::ClusterSpec* cluster_;
  EnvironmentOptions options_;
  sim::MeasurementSession session_;
  std::unique_ptr<sim::FaultInjector> injector_;  // null: faults disabled
  double penalty_seconds_ = 0.0;

  // Mutable environment state. The mutex guards everything below it:
  // the fault stream, the counters and the backoff accumulator. Counters
  // are only written inside the serialized Prepare/Commit phases, so
  // plain ints under the lock suffice — no atomics needed (eagle-lint
  // rule CC01 keeps it that way).
  mutable std::mutex state_mutex_;
  support::Rng fault_rng_;
  int evaluations_ = 0;
  int attempts_ = 0;
  int transient_failures_ = 0;
  int timeouts_ = 0;
  int retries_ = 0;
  int exhausted_evaluations_ = 0;
  double backoff_seconds_total_ = 0.0;  // summed in commit order
};

}  // namespace eagle::core
