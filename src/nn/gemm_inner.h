// The one multiply-accumulate primitive shared by every GEMM path.
//
// Bit-identity across the naive reference, the blocked portable kernels,
// and the AVX2+FMA intrinsics path requires every variant to perform
// the *same rounding sequence* per output element. The compiler's freedom
// to contract `acc + a*b` into an fma (or not) per call site would break
// that, so the whole repo builds with -ffp-contract=off and hot loops
// spell the contraction out through MulAdd: a single-rounding fused
// multiply-add wherever the hardware has one, and the plain two-rounding
// form elsewhere. Within one binary every path therefore agrees exactly;
// a lane of a vector fma and a scalar std::fmaf round identically by
// IEEE-754, which is what lets the SIMD kernels match the scalar oracle.
#pragma once

#include <cmath>

namespace eagle::nn::detail {

inline float MulAdd(float a, float b, float acc) {
#if defined(__FMA__)
  return std::fmaf(a, b, acc);
#else
  return acc + a * b;
#endif
}

}  // namespace eagle::nn::detail
