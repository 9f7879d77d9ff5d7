#include "nn/adam.h"

#include <cmath>

#include "support/binary_io.h"
#include "support/check.h"
#include "support/metrics.h"

namespace eagle::nn {

Adam::Adam(ParamStore& store, AdamOptions options)
    : store_(&store), options_(options) {}

double Adam::Step() {
  EAGLE_SPAN("adam.step");
  const double norm = options_.clip_norm > 0
                          ? store_->ClipGradNorm(options_.clip_norm)
                          : store_->GradNorm();
  ++t_;
  const double bias1 = 1.0 - std::pow(options_.beta1, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(options_.beta2, static_cast<double>(t_));
  const auto& params = store_->params();
  if (slots_.size() < params.size()) slots_.resize(params.size());
  for (std::size_t idx = 0; idx < params.size(); ++idx) {
    const auto& p = params[idx];
    Slot& slot = slots_[idx];
    if (slot.m.empty()) {
      slot.m = Tensor(p->value.rows(), p->value.cols());
      slot.v = Tensor(p->value.rows(), p->value.cols());
    }
    float* value = p->value.data();
    float* grad = p->grad.data();
    float* m = slot.m.data();
    float* v = slot.v.data();
    const auto n = p->value.size();
    for (std::int64_t i = 0; i < n; ++i) {
      m[i] = static_cast<float>(options_.beta1 * m[i] +
                                (1.0 - options_.beta1) * grad[i]);
      v[i] = static_cast<float>(options_.beta2 * v[i] +
                                (1.0 - options_.beta2) * grad[i] * grad[i]);
      const double m_hat = m[i] / bias1;
      const double v_hat = v[i] / bias2;
      value[i] -= static_cast<float>(options_.lr * m_hat /
                                     (std::sqrt(v_hat) + options_.eps));
    }
  }
  store_->ZeroGrads();
  return norm;
}

void Adam::SaveState(std::ostream& stream) const {
  support::BinaryWriter out(stream);
  out.Pod(t_);
  const auto& params = store_->params();
  out.Pod(static_cast<std::uint32_t>(params.size()));
  for (std::size_t idx = 0; idx < params.size(); ++idx) {
    const auto& p = params[idx];
    out.String(p->name);
    const bool has_slot = idx < slots_.size() && !slots_[idx].m.empty();
    out.Pod(static_cast<std::uint8_t>(has_slot ? 1 : 0));
    if (has_slot) {
      const auto bytes =
          static_cast<std::size_t>(p->value.size()) * sizeof(float);
      out.Bytes(slots_[idx].m.data(), bytes);
      out.Bytes(slots_[idx].v.data(), bytes);
    }
  }
}

void Adam::LoadState(std::istream& stream) {
  support::BinaryReader in(stream, "optimizer state");
  t_ = in.Pod<std::int64_t>();
  const auto count = in.Pod<std::uint32_t>();
  const auto& params = store_->params();
  slots_.assign(params.size(), Slot{});
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string name = in.String();
    const bool has_slot = in.Pod<std::uint8_t>() != 0;
    std::size_t idx = 0;
    while (idx < params.size() && params[idx]->name != name) ++idx;
    EAGLE_CHECK_MSG(idx < params.size(),
                    "optimizer state for unknown parameter " << name);
    if (!has_slot) continue;
    const Tensor& value = params[idx]->value;
    Slot& slot = slots_[idx];
    slot.m = Tensor(value.rows(), value.cols());
    slot.v = Tensor(value.rows(), value.cols());
    const auto bytes = static_cast<std::size_t>(value.size()) * sizeof(float);
    in.Bytes(slot.m.data(), bytes);
    in.Bytes(slot.v.data(), bytes);
  }
}

}  // namespace eagle::nn
