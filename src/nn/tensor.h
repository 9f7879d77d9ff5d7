// Dense fp32 matrix type used by the agent networks.
//
// Everything the agents compute (grouper logits, LSTM states, attention
// scores) is a rank-2 tensor; vectors are 1×C or R×1. Storage is one
// 32-byte-aligned heap block per tensor (nn/arena.h). Kernels are
// register-blocked with vectorizable j-inner loops (plus an AVX2+FMA
// intrinsics path wherever the target ISA has both) and are
// bit-identical to the naive triple-loop reference in nn/naive_ref.h:
// the accumulation order over k for each output element is exactly the
// reference's, only the loop nest around it changes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/check.h"

namespace eagle::nn {

class Tensor {
 public:
  Tensor() = default;
  Tensor(int rows, int cols, float fill = 0.0f);
  static Tensor FromData(int rows, int cols, std::vector<float> data);

  Tensor(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(const Tensor& other);
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor();

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::int64_t size() const {
    return static_cast<std::int64_t>(rows_) * cols_;
  }
  bool empty() const { return size() == 0; }

  float& at(int r, int c) {
    EAGLE_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(c)];
  }
  float at(int r, int c) const {
    EAGLE_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(c)];
  }

  float* data() { return data_; }
  const float* data() const { return data_; }
  float* row(int r) { return data_ + static_cast<std::size_t>(r) * cols_; }
  const float* row(int r) const {
    return data_ + static_cast<std::size_t>(r) * cols_;
  }

  void Fill(float v);
  bool SameShape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  std::string ShapeString() const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  float* data_ = nullptr;  // 32-byte aligned, rows_*cols_ floats
};

// out += a * b  (m×k times k×n). Accumulating form so backward passes can
// reuse it.
void GemmAccum(const Tensor& a, const Tensor& b, Tensor& out);
// out += aᵀ * b.
void GemmTransAAccum(const Tensor& a, const Tensor& b, Tensor& out);
// out += aᵀ * b over the leading `rows` rows of a and b only: the same
// folds as GemmTransAAccum on tensors holding just those rows.
void GemmTransAAccumRows(const Tensor& a, const Tensor& b, int rows,
                         Tensor& out);
// out += a * bᵀ. Each element's dot product is folded from 0.0f and then
// added to out once.
void GemmTransBAccum(const Tensor& a, const Tensor& b, Tensor& out);
// GemmTransBAccum with b given already transposed (b_t = bᵀ, n×k):
// bit-identical to GemmTransBAccum(a, b, out), without the transpose.
void GemmTransBAccumPretransposed(const Tensor& a, const Tensor& b_t,
                                  Tensor& out);

// Returns tᵀ.
Tensor Transposed(const Tensor& t);

// out = a * b (allocating convenience).
Tensor MatMul(const Tensor& a, const Tensor& b);

// y += alpha * x (same shape).
void Axpy(float alpha, const Tensor& x, Tensor& y);

// Sum of squares of all elements.
double SquaredNorm(const Tensor& t);

}  // namespace eagle::nn
