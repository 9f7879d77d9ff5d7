// Aligned storage for nn::Tensor.
//
// Every Tensor buffer is one 32-byte-aligned global operator new block,
// freed when the Tensor releases it. The alignment is what the GEMM
// kernels' SIMD loads want (bench/prepr_kernels.h measured the 256-wide
// shapes on it). Contents are uninitialized; every Tensor constructor
// fills or copies its full extent.
#pragma once

#include <cstdint>

namespace eagle::nn {

struct ArenaStats {
  std::uint64_t acquires = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t fresh_allocs = 0;
};

// Inert; its only reader is e2ebench/harness.cpp. Delete both together.
ArenaStats ArenaStatsSnapshot();

namespace detail {

// Returns nullptr for count <= 0.
float* ArenaAcquire(std::int64_t count);
void ArenaRelease(float* ptr);

}  // namespace detail
}  // namespace eagle::nn
