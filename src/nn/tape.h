// Reverse-mode automatic differentiation on a define-by-run tape.
//
// Each forward op pushes a node holding its value and a backward closure;
// Backward(loss) seeds d(loss)=1 and replays closures in reverse order,
// accumulating gradients into node slots and — for leaves bound via
// Param() — into the persistent Parameter::grad buffers the optimizer
// consumes. The tape is rebuilt every forward pass (PPO recomputes log
// probabilities under current parameters each epoch).
//
// Two backward shortcuts for MatMul(a, Param) keep every gradient bit:
// the input gradient dC·Wᵀ reads one valueᵀ per Param, built the first
// time a backward pass needs it and freed with the tape; and a weight
// gradient aᵀ·dC from an `a` of at most kDeferMaxRows rows (one LSTM
// step) is recorded instead of computed. The recorded rows are folded
// into the Param's gradient as one multi-row GEMM, in recording order —
// the same fma sequence per element as one call per record — before
// anything else writes that gradient (every writer goes through GradRef),
// before a record that would overflow kPendingRows rows, and at the end of
// Backward.
#pragma once

#include <functional>
#include <vector>

#include "nn/tensor.h"

namespace eagle::nn {

// A persistent, named, trainable tensor with its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;
};

// Handle into a Tape; invalidated by Tape::Reset().
struct Var {
  std::int32_t id = -1;
  bool valid() const { return id >= 0; }
};

class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  // Clears all nodes (Vars from before are invalid afterwards).
  void Reset();
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  // Leaves.
  Var Input(Tensor value);          // constant (no gradient tracked)
  // Persistent leaf; grads accumulate into Parameter::grad. Calling
  // Param() twice for the same parameter on one tape returns the SAME
  // node (an LSTM unrolled for 256 steps must not copy its weight matrix
  // 256 times).
  Var Param(Parameter* parameter);

  const Tensor& value(Var v) const;
  const Tensor& grad(Var v) const;  // valid after Backward

  // ---- ops (shapes checked; gradients exact) ----
  Var MatMul(Var a, Var b);
  Var Add(Var a, Var b);        // same shape, or b is 1×C (row broadcast)
  Var Sub(Var a, Var b);        // same shape
  Var Mul(Var a, Var b);        // elementwise, same shape
  Var Scale(Var a, float s);
  Var AddScalar(Var a, float s);
  Var Tanh(Var a);
  Var Sigmoid(Var a);
  Var Relu(Var a);
  Var Exp(Var a);
  Var MinElem(Var a, Var b);    // elementwise min, same shape
  Var Clamp(Var a, float lo, float hi);  // zero gradient outside [lo, hi]
  Var Softmax(Var a);           // row-wise
  Var LogSoftmax(Var a);        // row-wise, numerically stable
  Var Transpose(Var a);
  Var ConcatCols(Var a, Var b);
  Var ConcatRows(const std::vector<Var>& rows);  // all 1×C or R_i×C
  Var SliceCols(Var a, int c0, int c1);          // columns [c0, c1)
  Var Row(Var a, int r);                         // 1×C view (copy)
  Var Sum(Var a);               // 1×1
  Var Mean(Var a);              // 1×1
  Var SumRows(Var a);           // R×C -> 1×C (column sums)
  // out[r, 0] = a[r, idx[r]] — gathers per-row entries (picked log-probs).
  Var PickPerRow(Var a, std::vector<int> idx);
  // Row-wise entropy of a probability matrix: out 1×1 = -Σ p log p / R…
  // left to callers via Mul/Sum of Softmax and LogSoftmax outputs.

  // Seeds d(loss)=1 (loss must be 1×1) and back-propagates.
  void Backward(Var loss);

 private:
  struct Node {
    Tensor value;
    Tensor grad;                         // lazily sized at Backward
    std::function<void()> backward;      // may be empty for leaves
    std::int32_t param = -1;             // params_ index for Param leaves
    bool needs_grad = false;
  };

  // Per-tape state of one Param leaf.
  struct ParamSlot {
    Parameter* parameter = nullptr;
    Var var;
    Tensor value_t;       // valueᵀ, built on first use by a backward pass
    Tensor pending_a;     // kPendingRows × value.rows: recorded `a` rows
    Tensor pending_g;     // kPendingRows × value.cols: recorded dC rows
    int pending_rows = 0;
  };

  static constexpr int kDeferMaxRows = 8;
  static constexpr int kPendingRows = 64;

  Var Push(Tensor value, bool needs_grad);
  Node& node(Var v);
  const Node& node(Var v) const;
  // The only way to write a node's gradient: sizes it on first use and
  // folds a Param's recorded weight-gradient rows into it first.
  Tensor& GradRef(Var v);
  const Tensor& TransposedValue(ParamSlot& slot);
  // Records the contribution aᵀ·g to slot's gradient for a later fold.
  void DeferWeightGrad(ParamSlot& slot, const Tensor& a, const Tensor& g);

  std::vector<Node> nodes_;
  std::vector<ParamSlot> params_;
};

}  // namespace eagle::nn
