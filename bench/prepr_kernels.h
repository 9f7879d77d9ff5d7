// The GEMM kernels exactly as the repo shipped them before the blocked/
// SIMD rewrite — zero-skip branch, implicit a*b+c contraction — compiled
// in their own translation unit with the pre-rewrite floating-point
// flags (-ffp-contract=fast; see bench/CMakeLists.txt). bench_micro
// times them as the "pre-PR" column of BENCH_kernels.json, so the
// recorded speedups are measured against the genuine historical code
// under the same harness, not remembered from an older run.
//
// prepr::Tensor reproduces the seed storage too: the old nn::Tensor kept
// its data in a std::vector<float>, whose glibc allocation lands 16
// bytes past a 32-byte boundary — measurably slower at the 256-wide
// shapes than the 32-byte-aligned storage the rewrite introduced (still
// nn/arena.h). Timing the old kernels on aligned operands flatters the
// baseline by up to 2x, so the pre-PR column gets the pre-PR allocator
// as well.
//
// Not an oracle: the zero-skip drops NaN/Inf propagation and contraction
// changes rounding, which is exactly why these are frozen *here* and not
// in src/. Bit-identity is proven against nn::naive instead
// (tests/test_kernels.cpp).
#pragma once

#include <string>
#include <vector>

#include "nn/tensor.h"

namespace eagle::bench::prepr {

// Seed-commit tensor storage: row-major floats in a std::vector.
class Tensor {
 public:
  Tensor(int rows, int cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows) * cols, 0.0f) {}
  // Copies an nn::Tensor's contents into seed storage.
  explicit Tensor(const nn::Tensor& t) : Tensor(t.rows(), t.cols()) {
    for (int i = 0; i < rows_; ++i) {
      const float* src = t.row(i);
      float* dst = row(i);
      for (int j = 0; j < cols_; ++j) dst[j] = src[j];
    }
  }
  int rows() const { return rows_; }
  int cols() const { return cols_; }
  const float* row(int i) const {
    return data_.data() + static_cast<std::size_t>(i) * cols_;
  }
  float* row(int i) { return data_.data() + static_cast<std::size_t>(i) * cols_; }
  std::string ShapeString() const {
    return std::to_string(rows_) + "x" + std::to_string(cols_);
  }

 private:
  int rows_;
  int cols_;
  std::vector<float> data_;
};

void GemmAccum(const Tensor& a, const Tensor& b, Tensor& out);
void GemmTransAAccum(const Tensor& a, const Tensor& b, Tensor& out);
void GemmTransBAccum(const Tensor& a, const Tensor& b, Tensor& out);

}  // namespace eagle::bench::prepr
