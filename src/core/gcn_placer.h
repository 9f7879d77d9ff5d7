// Independent-head placers: every group's device is predicted
// simultaneously and independently from its own row of logits — the
// property that costs them against the sequence-to-sequence placer in
// Table II (no conditioning on previous decisions).
//
//   GcnPlacer (§III-C, Fig. 3b) — two graph-convolution layers over the
//                                 group graph, then a softmax head;
//   MlpPlacer (Post, Gao et al.) — a per-group two-layer tanh MLP,
//                                 l2(tanh(l1(x))), with no graph input.
#pragma once

#include <vector>

#include "core/seq2seq_placer.h"  // PlacerRollout
#include "nn/layers.h"

namespace eagle::core {

// The shared head: row g of `logits` (k×D) is group g's categorical over
// devices. Samples (rng) or scores (forced) one device per row; the
// rollout's log-prob is the sum of the picked log-probs and its entropy
// the mean per-row entropy. Exactly one of rng/forced must be set.
PlacerRollout IndependentPlacementHead(
    nn::Tape& tape, nn::Var logits, support::Rng* rng,
    const std::vector<std::int32_t>* forced);

class GcnPlacer {
 public:
  GcnPlacer() = default;
  GcnPlacer(nn::ParamStore& store, int input_dim, int hidden,
            int num_devices, support::Rng& rng);

  // `adjacency` is the constant normalized group adjacency Â (k×k).
  PlacerRollout Run(nn::Tape& tape, nn::Var group_embeddings, nn::Var adjacency,
                    support::Rng* rng,
                    const std::vector<std::int32_t>* forced) const;

 private:
  nn::GraphConv conv1_;
  nn::GraphConv conv2_;
  nn::Linear output_;
};

class MlpPlacer {
 public:
  MlpPlacer() = default;
  MlpPlacer(nn::ParamStore& store, int input_dim, int hidden,
            int num_devices, support::Rng& rng);

  PlacerRollout Run(nn::Tape& tape, nn::Var group_embeddings,
                    support::Rng* rng,
                    const std::vector<std::int32_t>* forced) const;

 private:
  nn::Linear l1_;
  nn::Linear l2_;
};

}  // namespace eagle::core
