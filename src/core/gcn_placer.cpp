#include "core/gcn_placer.h"

#include "support/check.h"

namespace eagle::core {

PlacerRollout IndependentPlacementHead(
    nn::Tape& tape, nn::Var logits, support::Rng* rng,
    const std::vector<std::int32_t>* forced) {
  EAGLE_CHECK_MSG((rng != nullptr) != (forced != nullptr),
                  "pass exactly one of rng / forced devices");
  nn::Var logp = tape.LogSoftmax(logits);
  nn::Var probs = tape.Softmax(logits);
  const nn::Tensor& probs_value = tape.value(probs);
  const int k = probs_value.rows();
  const int num_devices = probs_value.cols();

  PlacerRollout rollout;
  rollout.devices.resize(static_cast<std::size_t>(k));
  std::vector<int> picks(static_cast<std::size_t>(k));
  for (int g = 0; g < k; ++g) {
    int device;
    if (forced != nullptr) {
      device = (*forced)[static_cast<std::size_t>(g)];
      EAGLE_CHECK(device >= 0 && device < num_devices);
    } else {
      device = static_cast<int>(rng->NextFromProbs(
          probs_value.row(g), static_cast<std::size_t>(num_devices)));
    }
    rollout.devices[static_cast<std::size_t>(g)] = device;
    picks[static_cast<std::size_t>(g)] = device;
  }
  rollout.log_prob = tape.Sum(tape.PickPerRow(logp, std::move(picks)));
  rollout.entropy = tape.Scale(tape.Sum(tape.Mul(probs, logp)),
                               -1.0f / static_cast<float>(k));
  return rollout;
}

GcnPlacer::GcnPlacer(nn::ParamStore& store, int input_dim, int hidden,
                     int num_devices, support::Rng& rng)
    : conv1_(store, "gcn/conv1", input_dim, hidden, rng),
      conv2_(store, "gcn/conv2", hidden, hidden, rng),
      output_(store, "gcn/output", hidden, num_devices, rng) {}

PlacerRollout GcnPlacer::Run(nn::Tape& tape, nn::Var group_embeddings,
                             nn::Var adjacency, support::Rng* rng,
                             const std::vector<std::int32_t>* forced) const {
  nn::Var h1 = conv1_.Apply(tape, adjacency, group_embeddings);
  nn::Var h2 = conv2_.Apply(tape, adjacency, h1);
  return IndependentPlacementHead(tape, output_.Apply(tape, h2), rng,
                                  forced);
}

MlpPlacer::MlpPlacer(nn::ParamStore& store, int input_dim, int hidden,
                     int num_devices, support::Rng& rng)
    : l1_(store, "post/l1", input_dim, hidden, rng),
      l2_(store, "post/l2", hidden, num_devices, rng) {}

PlacerRollout MlpPlacer::Run(nn::Tape& tape, nn::Var group_embeddings,
                             support::Rng* rng,
                             const std::vector<std::int32_t>* forced) const {
  nn::Var hidden = tape.Tanh(l1_.Apply(tape, group_embeddings));
  return IndependentPlacementHead(tape, l2_.Apply(tape, hidden), rng, forced);
}

}  // namespace eagle::core
