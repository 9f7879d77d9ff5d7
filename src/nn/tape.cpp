#include "nn/tape.h"

#include <algorithm>
#include <cmath>

namespace eagle::nn {

void Tape::Reset() {
  nodes_.clear();
  params_.clear();
}

Tape::Node& Tape::node(Var v) {
  EAGLE_CHECK_MSG(v.id >= 0 && v.id < num_nodes(), "invalid Var");
  return nodes_[static_cast<std::size_t>(v.id)];
}

const Tape::Node& Tape::node(Var v) const {
  EAGLE_CHECK_MSG(v.id >= 0 && v.id < num_nodes(), "invalid Var");
  return nodes_[static_cast<std::size_t>(v.id)];
}

Tensor& Tape::GradRef(Var v) {
  Node& n = node(v);
  if (n.grad.empty() && !n.value.empty()) {
    n.grad = Tensor(n.value.rows(), n.value.cols());
  }
  if (n.param >= 0) {
    ParamSlot& slot = params_[static_cast<std::size_t>(n.param)];
    if (slot.pending_rows > 0) {
      GemmTransAAccumRows(slot.pending_a, slot.pending_g, slot.pending_rows,
                          n.grad);
      slot.pending_rows = 0;
    }
  }
  return n.grad;
}

const Tensor& Tape::TransposedValue(ParamSlot& slot) {
  if (slot.value_t.empty()) slot.value_t = Transposed(value(slot.var));
  return slot.value_t;
}

void Tape::DeferWeightGrad(ParamSlot& slot, const Tensor& a,
                           const Tensor& g) {
  if (slot.pending_rows + a.rows() > kPendingRows) GradRef(slot.var);
  if (slot.pending_a.empty()) {
    slot.pending_a = Tensor(kPendingRows, a.cols());
    slot.pending_g = Tensor(kPendingRows, g.cols());
  }
  std::copy(a.data(), a.data() + a.size(),
            slot.pending_a.row(slot.pending_rows));
  std::copy(g.data(), g.data() + g.size(),
            slot.pending_g.row(slot.pending_rows));
  slot.pending_rows += a.rows();
}

Var Tape::Push(Tensor value, bool needs_grad) {
  Node n;
  n.value = std::move(value);
  n.needs_grad = needs_grad;
  nodes_.push_back(std::move(n));
  return Var{static_cast<std::int32_t>(nodes_.size()) - 1};
}

Var Tape::Input(Tensor value) { return Push(std::move(value), false); }

Var Tape::Param(Parameter* parameter) {
  EAGLE_CHECK(parameter != nullptr);
  for (const ParamSlot& slot : params_) {
    if (slot.parameter == parameter) return slot.var;
  }
  Var v = Push(parameter->value, true);
  node(v).param = static_cast<std::int32_t>(params_.size());
  params_.push_back(ParamSlot{parameter, v});
  return v;
}

const Tensor& Tape::value(Var v) const { return node(v).value; }
const Tensor& Tape::grad(Var v) const { return node(v).grad; }

Var Tape::MatMul(Var a, Var b) {
  const Tensor& av = value(a);
  const Tensor& bv = value(b);
  Tensor out(av.rows(), bv.cols());
  GemmAccum(av, bv, out);
  const bool ng = node(a).needs_grad || node(b).needs_grad;
  Var result = Push(std::move(out), ng);
  if (ng) {
    node(result).backward = [this, a, b, result]() {
      const Tensor& g = node(result).grad;
      const std::int32_t param = node(b).param;
      ParamSlot* slot =
          param >= 0 ? &params_[static_cast<std::size_t>(param)] : nullptr;
      if (node(a).needs_grad) {
        if (slot != nullptr) {
          GemmTransBAccumPretransposed(g, TransposedValue(*slot), GradRef(a));
        } else {
          GemmTransBAccum(g, value(b), GradRef(a));
        }
      }
      if (node(b).needs_grad) {
        if (slot != nullptr && value(a).rows() <= kDeferMaxRows) {
          DeferWeightGrad(*slot, value(a), g);
        } else {
          GemmTransAAccum(value(a), g, GradRef(b));
        }
      }
    };
  }
  return result;
}

Var Tape::Add(Var a, Var b) {
  const Tensor& av = value(a);
  const Tensor& bv = value(b);
  const bool broadcast = bv.rows() == 1 && av.rows() != 1;
  EAGLE_CHECK_MSG(av.cols() == bv.cols() && (broadcast || av.rows() == bv.rows()),
                  "Add shape mismatch " << av.ShapeString() << " + "
                                        << bv.ShapeString());
  Tensor out = av;
  for (int r = 0; r < out.rows(); ++r) {
    const float* brow = bv.row(broadcast ? 0 : r);
    float* orow = out.row(r);
    for (int c = 0; c < out.cols(); ++c) orow[c] += brow[c];
  }
  const bool ng = node(a).needs_grad || node(b).needs_grad;
  Var result = Push(std::move(out), ng);
  if (ng) {
    node(result).backward = [this, a, b, result, broadcast]() {
      const Tensor& g = node(result).grad;
      if (node(a).needs_grad) Axpy(1.0f, g, GradRef(a));
      if (node(b).needs_grad) {
        Tensor& gb = GradRef(b);
        if (broadcast) {
          for (int r = 0; r < g.rows(); ++r) {
            const float* grow = g.row(r);
            float* brow = gb.row(0);
            for (int c = 0; c < g.cols(); ++c) brow[c] += grow[c];
          }
        } else {
          Axpy(1.0f, g, gb);
        }
      }
    };
  }
  return result;
}

Var Tape::Sub(Var a, Var b) {
  const Tensor& av = value(a);
  const Tensor& bv = value(b);
  EAGLE_CHECK_MSG(av.SameShape(bv), "Sub shape mismatch");
  Tensor out = av;
  Axpy(-1.0f, bv, out);
  const bool ng = node(a).needs_grad || node(b).needs_grad;
  Var result = Push(std::move(out), ng);
  if (ng) {
    node(result).backward = [this, a, b, result]() {
      const Tensor& g = node(result).grad;
      if (node(a).needs_grad) Axpy(1.0f, g, GradRef(a));
      if (node(b).needs_grad) Axpy(-1.0f, g, GradRef(b));
    };
  }
  return result;
}

Var Tape::Mul(Var a, Var b) {
  const Tensor& av = value(a);
  const Tensor& bv = value(b);
  EAGLE_CHECK_MSG(av.SameShape(bv), "Mul shape mismatch " << av.ShapeString()
                                                          << " vs "
                                                          << bv.ShapeString());
  Tensor out = av;
  {
    float* od = out.data();
    const float* bd = bv.data();
    for (std::int64_t i = 0; i < out.size(); ++i) od[i] *= bd[i];
  }
  const bool ng = node(a).needs_grad || node(b).needs_grad;
  Var result = Push(std::move(out), ng);
  if (ng) {
    node(result).backward = [this, a, b, result]() {
      const Tensor& g = node(result).grad;
      if (node(a).needs_grad) {
        Tensor& ga = GradRef(a);
        const float* gd = g.data();
        const float* bd = value(b).data();
        float* gad = ga.data();
        for (std::int64_t i = 0; i < g.size(); ++i) gad[i] += gd[i] * bd[i];
      }
      if (node(b).needs_grad) {
        Tensor& gb = GradRef(b);
        const float* gd = g.data();
        const float* ad = value(a).data();
        float* gbd = gb.data();
        for (std::int64_t i = 0; i < g.size(); ++i) gbd[i] += gd[i] * ad[i];
      }
    };
  }
  return result;
}

Var Tape::Scale(Var a, float s) {
  Tensor out = value(a);
  float* od = out.data();
  for (std::int64_t i = 0; i < out.size(); ++i) od[i] *= s;
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng);
  if (ng) {
    node(result).backward = [this, a, result, s]() {
      Axpy(s, node(result).grad, GradRef(a));
    };
  }
  return result;
}

Var Tape::AddScalar(Var a, float s) {
  Tensor out = value(a);
  float* od = out.data();
  for (std::int64_t i = 0; i < out.size(); ++i) od[i] += s;
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng);
  if (ng) {
    node(result).backward = [this, a, result]() {
      Axpy(1.0f, node(result).grad, GradRef(a));
    };
  }
  return result;
}

namespace {
template <typename F>
Tensor MapTensor(const Tensor& in, F f) {
  Tensor out = in;
  float* d = out.data();
  for (std::int64_t i = 0; i < out.size(); ++i) d[i] = f(d[i]);
  return out;
}
}  // namespace

Var Tape::Tanh(Var a) {
  Tensor out = MapTensor(value(a), [](float x) { return std::tanh(x); });
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng);
  if (ng) {
    node(result).backward = [this, a, result]() {
      const Tensor& g = node(result).grad;
      const Tensor& y = node(result).value;
      Tensor& ga = GradRef(a);
      const float* gd = g.data();
      const float* yd = y.data();
      float* gad = ga.data();
      for (std::int64_t i = 0; i < g.size(); ++i)
        gad[i] += gd[i] * (1.0f - yd[i] * yd[i]);
    };
  }
  return result;
}

Var Tape::Sigmoid(Var a) {
  Tensor out = MapTensor(value(a), [](float x) {
    return 1.0f / (1.0f + std::exp(-x));
  });
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng);
  if (ng) {
    node(result).backward = [this, a, result]() {
      const Tensor& g = node(result).grad;
      const Tensor& y = node(result).value;
      Tensor& ga = GradRef(a);
      const float* gd = g.data();
      const float* yd = y.data();
      float* gad = ga.data();
      for (std::int64_t i = 0; i < g.size(); ++i)
        gad[i] += gd[i] * yd[i] * (1.0f - yd[i]);
    };
  }
  return result;
}

Var Tape::Relu(Var a) {
  Tensor out = MapTensor(value(a), [](float x) { return x > 0 ? x : 0.0f; });
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng);
  if (ng) {
    node(result).backward = [this, a, result]() {
      const Tensor& g = node(result).grad;
      const Tensor& y = node(result).value;
      Tensor& ga = GradRef(a);
      const float* gd = g.data();
      const float* yd = y.data();
      float* gad = ga.data();
      for (std::int64_t i = 0; i < g.size(); ++i)
        gad[i] += yd[i] > 0 ? gd[i] : 0.0f;
    };
  }
  return result;
}

Var Tape::Exp(Var a) {
  Tensor out = MapTensor(value(a), [](float x) { return std::exp(x); });
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng);
  if (ng) {
    node(result).backward = [this, a, result]() {
      const Tensor& g = node(result).grad;
      const Tensor& y = node(result).value;
      Tensor& ga = GradRef(a);
      const float* gd = g.data();
      const float* yd = y.data();
      float* gad = ga.data();
      for (std::int64_t i = 0; i < g.size(); ++i) gad[i] += gd[i] * yd[i];
    };
  }
  return result;
}

Var Tape::MinElem(Var a, Var b) {
  const Tensor& av = value(a);
  const Tensor& bv = value(b);
  EAGLE_CHECK_MSG(av.SameShape(bv), "MinElem shape mismatch");
  Tensor out = av;
  {
    float* od = out.data();
    const float* bd = bv.data();
    for (std::int64_t i = 0; i < out.size(); ++i)
      od[i] = std::min(od[i], bd[i]);
  }
  const bool ng = node(a).needs_grad || node(b).needs_grad;
  Var result = Push(std::move(out), ng);
  if (ng) {
    node(result).backward = [this, a, b, result]() {
      const Tensor& g = node(result).grad;
      const float* ad = value(a).data();
      const float* bd = value(b).data();
      const float* gd = g.data();
      // Ties route the gradient to `a` (subgradient choice).
      if (node(a).needs_grad) {
        float* ga = GradRef(a).data();
        for (std::int64_t i = 0; i < g.size(); ++i)
          if (ad[i] <= bd[i]) ga[i] += gd[i];
      }
      if (node(b).needs_grad) {
        float* gb = GradRef(b).data();
        for (std::int64_t i = 0; i < g.size(); ++i)
          if (ad[i] > bd[i]) gb[i] += gd[i];
      }
    };
  }
  return result;
}

Var Tape::Clamp(Var a, float lo, float hi) {
  EAGLE_CHECK(lo <= hi);
  Tensor out = MapTensor(value(a), [lo, hi](float x) {
    return std::min(hi, std::max(lo, x));
  });
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng);
  if (ng) {
    node(result).backward = [this, a, result, lo, hi]() {
      const Tensor& g = node(result).grad;
      const float* ad = value(a).data();
      const float* gd = g.data();
      float* ga = GradRef(a).data();
      for (std::int64_t i = 0; i < g.size(); ++i)
        if (ad[i] >= lo && ad[i] <= hi) ga[i] += gd[i];
    };
  }
  return result;
}

Var Tape::Softmax(Var a) {
  const Tensor& av = value(a);
  Tensor out(av.rows(), av.cols());
  for (int r = 0; r < av.rows(); ++r) {
    const float* in = av.row(r);
    float* o = out.row(r);
    float mx = in[0];
    for (int c = 1; c < av.cols(); ++c) mx = std::max(mx, in[c]);
    float sum = 0.0f;
    for (int c = 0; c < av.cols(); ++c) {
      o[c] = std::exp(in[c] - mx);
      sum += o[c];
    }
    for (int c = 0; c < av.cols(); ++c) o[c] /= sum;
  }
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng);
  if (ng) {
    node(result).backward = [this, a, result]() {
      const Tensor& g = node(result).grad;
      const Tensor& y = node(result).value;
      Tensor& ga = GradRef(a);
      for (int r = 0; r < g.rows(); ++r) {
        const float* gr = g.row(r);
        const float* yr = y.row(r);
        float* gar = ga.row(r);
        float dot = 0.0f;
        for (int c = 0; c < g.cols(); ++c) dot += gr[c] * yr[c];
        for (int c = 0; c < g.cols(); ++c) gar[c] += yr[c] * (gr[c] - dot);
      }
    };
  }
  return result;
}

Var Tape::LogSoftmax(Var a) {
  const Tensor& av = value(a);
  Tensor out(av.rows(), av.cols());
  for (int r = 0; r < av.rows(); ++r) {
    const float* in = av.row(r);
    float* o = out.row(r);
    float mx = in[0];
    for (int c = 1; c < av.cols(); ++c) mx = std::max(mx, in[c]);
    float sum = 0.0f;
    for (int c = 0; c < av.cols(); ++c) sum += std::exp(in[c] - mx);
    const float lse = mx + std::log(sum);
    for (int c = 0; c < av.cols(); ++c) o[c] = in[c] - lse;
  }
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng);
  if (ng) {
    node(result).backward = [this, a, result]() {
      const Tensor& g = node(result).grad;
      const Tensor& y = node(result).value;  // log-probs
      Tensor& ga = GradRef(a);
      for (int r = 0; r < g.rows(); ++r) {
        const float* gr = g.row(r);
        const float* yr = y.row(r);
        float* gar = ga.row(r);
        float gsum = 0.0f;
        for (int c = 0; c < g.cols(); ++c) gsum += gr[c];
        for (int c = 0; c < g.cols(); ++c)
          gar[c] += gr[c] - std::exp(yr[c]) * gsum;
      }
    };
  }
  return result;
}

Var Tape::Transpose(Var a) {
  const bool ng = node(a).needs_grad;
  Var result = Push(Transposed(value(a)), ng);
  if (ng) {
    node(result).backward = [this, a, result]() {
      const Tensor& g = node(result).grad;
      Tensor& ga = GradRef(a);
      for (int r = 0; r < g.rows(); ++r)
        for (int c = 0; c < g.cols(); ++c) ga.at(c, r) += g.at(r, c);
    };
  }
  return result;
}

Var Tape::ConcatCols(Var a, Var b) {
  const Tensor& av = value(a);
  const Tensor& bv = value(b);
  EAGLE_CHECK_MSG(av.rows() == bv.rows(), "ConcatCols row mismatch");
  Tensor out(av.rows(), av.cols() + bv.cols());
  for (int r = 0; r < av.rows(); ++r) {
    std::copy(av.row(r), av.row(r) + av.cols(), out.row(r));
    std::copy(bv.row(r), bv.row(r) + bv.cols(), out.row(r) + av.cols());
  }
  const bool ng = node(a).needs_grad || node(b).needs_grad;
  // Hoisted before Push: `av` dangles once Push reallocates the tape.
  const int ac = av.cols();
  Var result = Push(std::move(out), ng);
  if (ng) {
    node(result).backward = [this, a, b, result, ac]() {
      const Tensor& g = node(result).grad;
      if (node(a).needs_grad) {
        Tensor& ga = GradRef(a);
        for (int r = 0; r < ga.rows(); ++r)
          for (int c = 0; c < ga.cols(); ++c) ga.at(r, c) += g.at(r, c);
      }
      if (node(b).needs_grad) {
        Tensor& gb = GradRef(b);
        for (int r = 0; r < gb.rows(); ++r)
          for (int c = 0; c < gb.cols(); ++c) gb.at(r, c) += g.at(r, c + ac);
      }
    };
  }
  return result;
}

Var Tape::ConcatRows(const std::vector<Var>& rows) {
  EAGLE_CHECK(!rows.empty());
  const int cols = value(rows[0]).cols();
  int total = 0;
  bool ng = false;
  for (Var v : rows) {
    EAGLE_CHECK_MSG(value(v).cols() == cols, "ConcatRows col mismatch");
    total += value(v).rows();
    ng = ng || node(v).needs_grad;
  }
  Tensor out(total, cols);
  int offset = 0;
  for (Var v : rows) {
    const Tensor& t = value(v);
    std::copy(t.data(), t.data() + t.size(), out.row(offset));
    offset += t.rows();
  }
  Var result = Push(std::move(out), ng);
  if (ng) {
    std::vector<Var> captured = rows;
    node(result).backward = [this, captured, result]() {
      const Tensor& g = node(result).grad;
      int off = 0;
      for (Var v : captured) {
        const int r = value(v).rows();
        if (node(v).needs_grad) {
          Tensor& gv = GradRef(v);
          for (int i = 0; i < r; ++i)
            for (int c = 0; c < g.cols(); ++c)
              gv.at(i, c) += g.at(off + i, c);
        }
        off += r;
      }
    };
  }
  return result;
}

Var Tape::SliceCols(Var a, int c0, int c1) {
  const Tensor& av = value(a);
  EAGLE_CHECK_MSG(0 <= c0 && c0 < c1 && c1 <= av.cols(),
                  "SliceCols [" << c0 << "," << c1 << ") of "
                                << av.ShapeString());
  Tensor out(av.rows(), c1 - c0);
  for (int r = 0; r < av.rows(); ++r)
    std::copy(av.row(r) + c0, av.row(r) + c1, out.row(r));
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng);
  if (ng) {
    node(result).backward = [this, a, result, c0]() {
      const Tensor& g = node(result).grad;
      Tensor& ga = GradRef(a);
      for (int r = 0; r < g.rows(); ++r)
        for (int c = 0; c < g.cols(); ++c) ga.at(r, c + c0) += g.at(r, c);
    };
  }
  return result;
}

Var Tape::Row(Var a, int r) {
  const Tensor& av = value(a);
  EAGLE_CHECK_MSG(r >= 0 && r < av.rows(), "Row " << r << " of "
                                                  << av.ShapeString());
  Tensor out(1, av.cols());
  std::copy(av.row(r), av.row(r) + av.cols(), out.row(0));
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng);
  if (ng) {
    node(result).backward = [this, a, result, r]() {
      const Tensor& g = node(result).grad;
      Tensor& ga = GradRef(a);
      for (int c = 0; c < g.cols(); ++c) ga.at(r, c) += g.at(0, c);
    };
  }
  return result;
}

Var Tape::Sum(Var a) {
  const Tensor& av = value(a);
  float total = 0.0f;
  const float* d = av.data();
  for (std::int64_t i = 0; i < av.size(); ++i) total += d[i];
  Tensor out(1, 1);
  out.at(0, 0) = total;
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng);
  if (ng) {
    node(result).backward = [this, a, result]() {
      const float g = node(result).grad.at(0, 0);
      Tensor& ga = GradRef(a);
      float* gd = ga.data();
      for (std::int64_t i = 0; i < ga.size(); ++i) gd[i] += g;
    };
  }
  return result;
}

Var Tape::Mean(Var a) {
  const auto n = static_cast<float>(value(a).size());
  return Scale(Sum(a), 1.0f / n);
}

Var Tape::SumRows(Var a) {
  const Tensor& av = value(a);
  Tensor out(1, av.cols());
  for (int r = 0; r < av.rows(); ++r) {
    const float* row = av.row(r);
    float* o = out.row(0);
    for (int c = 0; c < av.cols(); ++c) o[c] += row[c];
  }
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng);
  if (ng) {
    node(result).backward = [this, a, result]() {
      const Tensor& g = node(result).grad;
      Tensor& ga = GradRef(a);
      for (int r = 0; r < ga.rows(); ++r)
        for (int c = 0; c < ga.cols(); ++c) ga.at(r, c) += g.at(0, c);
    };
  }
  return result;
}

Var Tape::PickPerRow(Var a, std::vector<int> idx) {
  const Tensor& av = value(a);
  EAGLE_CHECK_MSG(static_cast<int>(idx.size()) == av.rows(),
                  "PickPerRow needs one index per row");
  Tensor out(av.rows(), 1);
  for (int r = 0; r < av.rows(); ++r) {
    EAGLE_CHECK_MSG(idx[static_cast<std::size_t>(r)] >= 0 &&
                        idx[static_cast<std::size_t>(r)] < av.cols(),
                    "PickPerRow index out of range");
    out.at(r, 0) = av.at(r, idx[static_cast<std::size_t>(r)]);
  }
  const bool ng = node(a).needs_grad;
  Var result = Push(std::move(out), ng);
  if (ng) {
    node(result).backward = [this, a, result, idx = std::move(idx)]() {
      const Tensor& g = node(result).grad;
      Tensor& ga = GradRef(a);
      for (int r = 0; r < g.rows(); ++r)
        ga.at(r, idx[static_cast<std::size_t>(r)]) += g.at(r, 0);
    };
  }
  return result;
}

void Tape::Backward(Var loss) {
  Node& ln = node(loss);
  EAGLE_CHECK_MSG(ln.value.rows() == 1 && ln.value.cols() == 1,
                  "Backward expects a scalar loss, got "
                      << ln.value.ShapeString());
  EAGLE_CHECK_MSG(ln.needs_grad, "loss does not depend on any parameter");
  GradRef(loss).at(0, 0) = 1.0f;
  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) {
    if (it->backward && !it->grad.empty()) it->backward();
  }
  // Fold what is still recorded, then flush leaf grads into their bound
  // parameters.
  for (ParamSlot& slot : params_) {
    if (slot.pending_rows > 0) GradRef(slot.var);
    slot.pending_a = Tensor();
    slot.pending_g = Tensor();
    const Node& n = node(slot.var);
    if (n.grad.empty()) continue;
    if (slot.parameter->grad.empty()) {
      slot.parameter->grad = Tensor(n.value.rows(), n.value.cols());
    }
    Axpy(1.0f, n.grad, slot.parameter->grad);
  }
}

}  // namespace eagle::nn
