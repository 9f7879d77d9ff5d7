#include "nn/arena.h"

#include <cstddef>
#include <new>

namespace eagle::nn {
namespace {

constexpr std::align_val_t kAlign{32};

}  // namespace

ArenaStats ArenaStatsSnapshot() { return {}; }

namespace detail {

float* ArenaAcquire(std::int64_t count) {
  if (count <= 0) return nullptr;
  return static_cast<float*>(::operator new(
      static_cast<std::size_t>(count) * sizeof(float), kAlign));
}

void ArenaRelease(float* ptr) { ::operator delete(ptr, kAlign); }

}  // namespace detail
}  // namespace eagle::nn
