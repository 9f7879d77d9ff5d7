// Bit-identity proofs for the blocked/SIMD GEMM kernels: the optimized
// kernels must match the scalar naive reference (nn/naive_ref.h)
// bit-for-bit on every shape, NaN/Inf must propagate through zero
// operands, and rebuilding a tape must reproduce gradients exactly.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "nn/naive_ref.h"
#include "nn/tape.h"
#include "nn/tensor.h"

namespace eagle::nn {
namespace {

// Deterministic fill with sign, magnitude, and exponent spread so any
// reordered or re-rounded accumulation shows up as a bit difference.
Tensor TestMatrix(int rows, int cols, std::uint32_t seed) {
  Tensor t(rows, cols);
  std::uint32_t state = seed * 2654435761u + 12345u;
  float* d = t.data();
  for (std::int64_t i = 0; i < t.size(); ++i) {
    state = state * 1664525u + 1013904223u;
    const float mantissa =
        static_cast<float>(static_cast<std::int32_t>(state >> 8) -
                           (1 << 23)) /
        static_cast<float>(1 << 23);
    const int exponent = static_cast<int>(state % 7u) - 3;
    d[i] = std::ldexp(mantissa, exponent);
  }
  return t;
}

bool BitIdentical(const Tensor& a, const Tensor& b) {
  if (!a.SameShape(b)) return false;
  if (a.empty()) return true;
  return std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

using KernelFn = void (*)(const Tensor&, const Tensor&, Tensor&);

// Runs optimized vs reference on a(m×k)·b(k×n)-shaped inputs (the caller
// maps m/k/n onto the kernel's own convention) with a non-zero starting
// out so the accumulate path is exercised too.
void ExpectKernelMatches(KernelFn optimized, KernelFn reference, int ar,
                         int ac, int br, int bc, int outr, int outc,
                         std::uint32_t seed) {
  const Tensor a = TestMatrix(ar, ac, seed);
  const Tensor b = TestMatrix(br, bc, seed + 1);
  Tensor out_opt = TestMatrix(outr, outc, seed + 2);
  Tensor out_ref = out_opt;
  optimized(a, b, out_opt);
  reference(a, b, out_ref);
  EXPECT_TRUE(BitIdentical(out_opt, out_ref))
      << "kernel mismatch at " << ar << "x" << ac << " * " << br << "x" << bc;
}

// Covers full tiles, every row/column remainder class, vector shapes
// (1×N, N×1), and empty extents.
const int kDims[] = {0, 1, 2, 3, 5, 7, 8, 13, 16, 17, 24, 31, 33, 64};

// One-row products (an LSTM step) at widths that leave every tail class
// (16, 8 and narrow) behind the full panels; 328×256 / 2592×2048 are the
// LSTM-step weights at default and paper-scale dimensions.
const int kOneRowWidths[] = {65, 91, 128, 200, 256, 2048};

TEST(Kernels, GemmAccumBitIdenticalAcrossShapeGrid) {
  std::uint32_t seed = 1;
  for (int m : kDims)
    for (int k : kDims)
      for (int n : kDims)
        ExpectKernelMatches(GemmAccum, naive::GemmAccum, m, k, k, n, m, n,
                            ++seed);
  for (int n : kOneRowWidths)
    for (int k : {1, 7, 328})
      ExpectKernelMatches(GemmAccum, naive::GemmAccum, 1, k, k, n, 1, n,
                          ++seed);
  ExpectKernelMatches(GemmAccum, naive::GemmAccum, 1, 2592, 2592, 2048, 1,
                      2048, ++seed);
}

TEST(Kernels, GemmTransAAccumBitIdenticalAcrossShapeGrid) {
  std::uint32_t seed = 10001;
  for (int m : kDims)
    for (int k : kDims)
      for (int n : kDims)
        ExpectKernelMatches(GemmTransAAccum, naive::GemmTransAAccum, m, k, m,
                            n, k, n, ++seed);
  for (int n : kOneRowWidths)
    for (int m : {1, 5, 64})
      ExpectKernelMatches(GemmTransAAccum, naive::GemmTransAAccum, m, 1, m,
                          n, 1, n, ++seed);
}

// The entry point the tape calls with a Param's cached transpose.
void GemmTransBViaPretransposed(const Tensor& a, const Tensor& b,
                                Tensor& out) {
  GemmTransBAccumPretransposed(a, Transposed(b), out);
}

// a(m×n)·bᵀ with b k×n: the shape grid plus the shapes training executes —
// one-row LSTM-step input gradients at the default (328×256, 144×256,
// 42×64) and paper-scale (2592×2048) weight sizes, the grouper's
// 5042-row W2 input gradient, and every k below one vector width.
TEST(Kernels, GemmTransBAccumBitIdenticalAcrossShapeGrid) {
  struct Shape {
    int m, k, n;
  };
  std::vector<Shape> shapes;
  for (int m : kDims)
    for (int k : kDims)
      for (int n : kDims) shapes.push_back({m, k, n});
  for (const Shape executed : {Shape{1, 328, 256}, Shape{1, 144, 256},
                               Shape{1, 42, 64}, Shape{1, 2592, 2048},
                               Shape{5042, 24, 24}})
    shapes.push_back(executed);
  for (int k = 1; k < 8; ++k) {
    shapes.push_back({1, k, 256});
    shapes.push_back({5, k, 37});
  }
  for (int k : kOneRowWidths) shapes.push_back({1, k, 45});
  std::uint32_t seed = 20001;
  for (const Shape& s : shapes) {
    ++seed;
    ExpectKernelMatches(GemmTransBAccum, naive::GemmTransBAccum, s.m, s.n,
                        s.k, s.n, s.m, s.k, seed);
    ExpectKernelMatches(GemmTransBViaPretransposed, naive::GemmTransBAccum,
                        s.m, s.n, s.k, s.n, s.m, s.k, seed);
  }
}

TEST(Kernels, GemmTransAAccumRowsMatchesLeadingRowTensors) {
  const Tensor a = TestMatrix(64, 37, 31);
  const Tensor b = TestMatrix(64, 19, 32);
  for (int rows : {0, 1, 5, 63, 64}) {
    Tensor got = TestMatrix(37, 19, 33);
    Tensor want = got;
    GemmTransAAccumRows(a, b, rows, got);
    Tensor a_rows(rows, a.cols()), b_rows(rows, b.cols());
    std::copy(a.data(), a.data() + a_rows.size(), a_rows.data());
    std::copy(b.data(), b.data() + b_rows.size(), b_rows.data());
    naive::GemmTransAAccum(a_rows, b_rows, want);
    EXPECT_TRUE(BitIdentical(got, want)) << rows << " rows";
  }
}

// Regression for the old `if (av == 0.0f) continue;` zero-skip: a zero in
// one operand must not suppress a NaN/Inf in the other (0 · NaN = NaN,
// 0 · ∞ = NaN), in the optimized kernels and the reference alike.
TEST(Kernels, ZeroTimesNanPropagates) {
  const float kBads[] = {std::numeric_limits<float>::quiet_NaN(),
                         std::numeric_limits<float>::infinity()};
  for (const float bad : kBads) {
    {
      Tensor a = Tensor::FromData(1, 2, {0.0f, 1.0f});
      Tensor b = Tensor::FromData(2, 1, {bad, 2.0f});
      Tensor out(1, 1);
      GemmAccum(a, b, out);
      EXPECT_TRUE(std::isnan(out.at(0, 0)));
      Tensor ref(1, 1);
      naive::GemmAccum(a, b, ref);
      EXPECT_TRUE(std::isnan(ref.at(0, 0)));
    }
    {
      // out(1,1) = aᵀ(1×2)·b(2×1) with the zero row of a against the bad
      // value of b.
      Tensor a = Tensor::FromData(2, 1, {0.0f, 1.0f});
      Tensor b = Tensor::FromData(2, 1, {bad, 2.0f});
      Tensor out(1, 1);
      GemmTransAAccum(a, b, out);
      EXPECT_TRUE(std::isnan(out.at(0, 0)));
      Tensor ref(1, 1);
      naive::GemmTransAAccum(a, b, ref);
      EXPECT_TRUE(std::isnan(ref.at(0, 0)));
    }
    {
      Tensor a = Tensor::FromData(1, 2, {0.0f, 1.0f});
      Tensor b = Tensor::FromData(1, 2, {bad, 2.0f});
      Tensor out(1, 1);
      GemmTransBAccum(a, b, out);
      EXPECT_TRUE(std::isnan(out.at(0, 0)));
      Tensor ref(1, 1);
      naive::GemmTransBAccum(a, b, ref);
      EXPECT_TRUE(std::isnan(ref.at(0, 0)));
    }
  }
}

std::vector<unsigned char> GradBytes(const Tensor& t) {
  std::vector<unsigned char> bytes(
      static_cast<std::size_t>(t.size()) * sizeof(float));
  std::memcpy(bytes.data(), t.data(), bytes.size());
  return bytes;
}

// One forward/backward pass of a small two-layer net on the given tape.
void RunTapePass(Tape& tape, Parameter& w1, Parameter& w2,
                 const Tensor& input) {
  Var x = tape.Input(input);
  Var h = tape.Tanh(tape.MatMul(x, tape.Param(&w1)));
  Var y = tape.MatMul(h, tape.Param(&w2));
  Var loss = tape.Mean(tape.Mul(y, y));
  tape.Backward(loss);
}

TEST(Tape, RebuildIsBitIdentical) {
  Parameter w1{"w1", TestMatrix(8, 16, 77), Tensor()};
  Parameter w2{"w2", TestMatrix(16, 4, 78), Tensor()};
  const Tensor input = TestMatrix(5, 8, 79);

  Tape tape;
  RunTapePass(tape, w1, w2, input);
  const auto g1_w1 = GradBytes(w1.grad);
  const auto g1_w2 = GradBytes(w2.grad);
  tape.Reset();

  w1.grad.Fill(0.0f);
  w2.grad.Fill(0.0f);
  RunTapePass(tape, w1, w2, input);
  EXPECT_EQ(g1_w1, GradBytes(w1.grad));
  EXPECT_EQ(g1_w2, GradBytes(w2.grad));
}

// An LSTM unrolled for more steps than the tape's 64-row weight-gradient
// fold holds. Its weight W is also read through Row() and Transpose()
// between its one-row MatMuls and by one many-row MatMul, as the placer's
// device table and the grouper's W2 are, and a second weight only ever
// sees one-row MatMuls. Each Parameter::grad must be byte-identical to
// accumulating every contribution one naive call at a time, in reverse
// tape order.
TEST(Tape, DeferredWeightGradientsMatchOneCallAtATime) {
  constexpr int kIn = 4, kHidden = 4, kSteps = 200;
  const auto scaled = [](Tensor t) {
    for (std::int64_t i = 0; i < t.size(); ++i) t.data()[i] *= 0.05f;
    return t;
  };
  Parameter w{"w", scaled(TestMatrix(kIn + kHidden, 4 * kHidden, 91)),
              Tensor()};
  Parameter bias{"b", scaled(TestMatrix(1, 4 * kHidden, 92)), Tensor()};
  Parameter w_out{"w_out", scaled(TestMatrix(kHidden, 3, 93)), Tensor()};
  const Tensor inputs = TestMatrix(kSteps, kIn, 94);

  // Every write into W's and W_out's gradients, in tape order.
  enum class Kind { kMatMul, kRow, kTranspose };
  struct Use {
    Parameter* param;
    Kind kind;
    Var in, out;
    int row = 0;
  };
  std::vector<Use> uses;

  Tape tape;
  const Var wv = tape.Param(&w);
  Var h = tape.Input(Tensor(1, kHidden));
  Var c = tape.Input(Tensor(1, kHidden));
  Var loss = tape.Input(Tensor(1, 1));
  std::vector<Var> xhs;
  for (int t = 0; t < kSteps; ++t) {
    Var x = tape.Input(Tensor::FromData(
        1, kIn, std::vector<float>(inputs.row(t), inputs.row(t) + kIn)));
    if (t == 5 || t == 170) {
      const int r = t % (kIn + kHidden);
      const Var row = tape.Row(wv, r);
      uses.push_back({&w, Kind::kRow, wv, row, r});
      x = tape.Add(x, tape.SliceCols(row, 0, kIn));
    } else if (t == 150) {
      const Var wt = tape.Transpose(wv);
      uses.push_back({&w, Kind::kTranspose, wv, wt});
      x = tape.Add(x, tape.SliceCols(tape.Row(wt, 3), 0, kIn));
    }
    const Var xh = tape.ConcatCols(x, h);
    xhs.push_back(xh);
    const Var pre = tape.MatMul(xh, wv);
    uses.push_back({&w, Kind::kMatMul, xh, pre});
    const Var gates = tape.Add(pre, tape.Param(&bias));
    const auto gate = [&](int n) {
      return tape.SliceCols(gates, n * kHidden, (n + 1) * kHidden);
    };
    const Var i = tape.Sigmoid(gate(0));
    const Var f = tape.Sigmoid(gate(1));
    const Var g = tape.Tanh(gate(2));
    const Var o = tape.Sigmoid(gate(3));
    c = tape.Add(tape.Mul(f, c), tape.Mul(i, g));
    h = tape.Mul(o, tape.Tanh(c));
    const Var y = tape.MatMul(h, tape.Param(&w_out));
    uses.push_back({&w_out, Kind::kMatMul, h, y});
    loss = tape.Add(loss, tape.Mean(tape.Mul(y, y)));
    if (t == 60) {
      const Var many_in = tape.ConcatRows(xhs);
      const Var many = tape.MatMul(many_in, wv);
      uses.push_back({&w, Kind::kMatMul, many_in, many});
      loss = tape.Add(loss, tape.Mean(tape.Mul(many, many)));
    }
  }
  tape.Backward(loss);

  for (Parameter* param : {&w, &w_out}) {
    Tensor ref(param->value.rows(), param->value.cols());
    for (auto it = uses.rbegin(); it != uses.rend(); ++it) {
      if (it->param != param) continue;
      const Tensor& g = tape.grad(it->out);
      ASSERT_FALSE(g.empty());
      switch (it->kind) {
        case Kind::kMatMul:
          naive::GemmTransAAccum(tape.value(it->in), g, ref);
          break;
        case Kind::kRow:
          for (int col = 0; col < g.cols(); ++col)
            ref.at(it->row, col) += g.at(0, col);
          break;
        case Kind::kTranspose:
          for (int r = 0; r < g.rows(); ++r)
            for (int col = 0; col < g.cols(); ++col)
              ref.at(col, r) += g.at(r, col);
          break;
      }
    }
    Tensor expected(ref.rows(), ref.cols());
    Axpy(1.0f, ref, expected);
    EXPECT_TRUE(BitIdentical(param->grad, expected)) << param->name;
    EXPECT_GT(SquaredNorm(param->grad), 0.0) << param->name;
  }
}

}  // namespace
}  // namespace eagle::nn
