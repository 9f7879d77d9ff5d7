// EvalService: parallel minibatch evaluation for the RL trainer.
//
// EAGLE's training cost is dominated by placement measurement (§IV-C:
// session setup + warm-up + 15 measured steps per sample), and the RL
// placers it builds on (Mirhoseini et al. 2017, Placeto) parallelize
// exactly this step across workers. EvalService does the same for the
// simulated environment: the trainer samples a full minibatch up front,
// the service fans the evaluations out over a support::ThreadPool, and
// the results are reduced in submission order.
//
// Determinism contract: a batch evaluated with N threads is bit-identical
// to the same batch evaluated serially. The service leans on
// PlacementEnvironment's three-phase protocol — PrepareEvaluation in
// dispatch order (evaluation count, fault-stream splits), EvaluateTicket
// concurrently (const, no shared mutable state), CommitEvaluation in
// submission order (counter deltas, backoff sums) — so thread scheduling
// can never leak into results, history, counters or checkpoints.
#pragma once

#include <memory>
#include <vector>

#include "core/env.h"
#include "core/policy.h"
#include "support/thread_pool.h"

namespace eagle::core {

class EvalService : public BatchEvaluator {
 public:
  // num_threads <= 1 evaluates inline on the calling thread (still via
  // the three-phase protocol, so results match the threaded path).
  EvalService(PlacementEnvironment& environment, int num_threads);
  ~EvalService() override;

  int num_threads() const;

  // Evaluates placements[i] with rngs[i]; returns results in submission
  // order, exactly as serial Environment::Evaluate calls would have.
  std::vector<sim::EvalResult> EvaluateBatch(
      const std::vector<sim::Placement>& placements,
      std::vector<support::Rng>& rngs) override;

 private:
  PlacementEnvironment* environment_;
  std::unique_ptr<support::ThreadPool> pool_;  // null: inline evaluation
};

}  // namespace eagle::core
