#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "nn/tensor.h"

namespace eagle::nn {
namespace {

TEST(Tensor, ConstructionAndAccess) {
  Tensor t(2, 3, 1.5f);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.size(), 6);
  EXPECT_FLOAT_EQ(t.at(1, 2), 1.5f);
  t.at(0, 1) = 7.0f;
  EXPECT_FLOAT_EQ(t.at(0, 1), 7.0f);
  EXPECT_FLOAT_EQ(t.row(0)[1], 7.0f);
}

// The SIMD GEMM kernels are tuned for 32-byte-aligned storage
// (docs/PERFORMANCE.md); every tensor size must get it: odd sizes that
// leave malloc's 16-byte alignment off by 16, sizes around 1 KB and
// 64 KB, and sizes past glibc's 128 KB mmap threshold.
TEST(Tensor, StorageIs32ByteAligned) {
  const int kShapes[][2] = {{1, 1},     {1, 3},     {3, 5},     {7, 13},
                            {1, 33},    {1, 253},   {1, 254},   {17, 31},
                            {64, 64},   {1, 16383}, {1, 16384}, {328, 256},
                            {1, 40001}, {129, 257}};
  std::vector<Tensor> live;  // earlier blocks stay allocated throughout
  for (const auto& shape : kShapes) {
    const int rows = shape[0], cols = shape[1];
    live.emplace_back(rows, cols, 1.0f);
    live.push_back(Tensor::FromData(
        rows, cols,
        std::vector<float>(static_cast<std::size_t>(rows) * cols, 2.0f)));
    Tensor copy(live.back());
    Tensor assigned(1, 2);
    assigned = copy;
    live.push_back(std::move(copy));
    live.push_back(std::move(assigned));
  }
  for (const Tensor& t : live) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.data()) % 32, 0u)
        << t.ShapeString();
    EXPECT_EQ(t.data()[t.size() - 1], t.data()[0]) << t.ShapeString();
  }
}

TEST(Tensor, FromDataValidatesSize) {
  EXPECT_NO_THROW(Tensor::FromData(2, 2, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor::FromData(2, 2, {1, 2, 3}), std::logic_error);
}

TEST(Tensor, FillAndShape) {
  Tensor t(3, 2);
  t.Fill(4.0f);
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 2; ++c) EXPECT_FLOAT_EQ(t.at(r, c), 4.0f);
  EXPECT_EQ(t.ShapeString(), "3x2");
  EXPECT_TRUE(t.SameShape(Tensor(3, 2)));
  EXPECT_FALSE(t.SameShape(Tensor(2, 3)));
}

TEST(Gemm, MatchesManual) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  Tensor a = Tensor::FromData(2, 2, {1, 2, 3, 4});
  Tensor b = Tensor::FromData(2, 2, {5, 6, 7, 8});
  Tensor out = MatMul(a, b);
  EXPECT_FLOAT_EQ(out.at(0, 0), 19);
  EXPECT_FLOAT_EQ(out.at(0, 1), 22);
  EXPECT_FLOAT_EQ(out.at(1, 0), 43);
  EXPECT_FLOAT_EQ(out.at(1, 1), 50);
}

TEST(Gemm, AccumulatesIntoOut) {
  Tensor a = Tensor::FromData(1, 1, {2});
  Tensor b = Tensor::FromData(1, 1, {3});
  Tensor out(1, 1, 10.0f);
  GemmAccum(a, b, out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 16.0f);
}

TEST(Gemm, ShapeMismatchThrows) {
  Tensor a(2, 3), b(2, 3), out(2, 3);
  EXPECT_THROW(GemmAccum(a, b, out), std::logic_error);
}

TEST(Gemm, TransposedVariantsConsistent) {
  // Check aᵀ·b and a·bᵀ against explicit transposition.
  Tensor a = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData(2, 4, {1, 0, 2, 1, 3, 1, 0, 2});
  Tensor at(3, 2);
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 3; ++c) at.at(c, r) = a.at(r, c);
  Tensor expected = MatMul(at, b);
  Tensor got(3, 4);
  GemmTransAAccum(a, b, got);
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 4; ++c)
      EXPECT_FLOAT_EQ(got.at(r, c), expected.at(r, c));

  // a(2×3) · bᵀ where b is 4×3:
  Tensor b2 = Tensor::FromData(4, 3, {1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1});
  Tensor got2(2, 4);
  GemmTransBAccum(a, b2, got2);
  // Row 0 of a dotted with rows of b2.
  EXPECT_FLOAT_EQ(got2.at(0, 0), 1);
  EXPECT_FLOAT_EQ(got2.at(0, 1), 2);
  EXPECT_FLOAT_EQ(got2.at(0, 2), 3);
  EXPECT_FLOAT_EQ(got2.at(0, 3), 6);
}

TEST(Axpy, AddsScaled) {
  Tensor x = Tensor::FromData(1, 3, {1, 2, 3});
  Tensor y = Tensor::FromData(1, 3, {10, 10, 10});
  Axpy(2.0f, x, y);
  EXPECT_FLOAT_EQ(y.at(0, 2), 16.0f);
}

TEST(Norm, SquaredNorm) {
  Tensor t = Tensor::FromData(1, 2, {3, 4});
  EXPECT_DOUBLE_EQ(SquaredNorm(t), 25.0);
}

}  // namespace
}  // namespace eagle::nn
