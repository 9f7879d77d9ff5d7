// HP02 cross-file fixture: an allocating helper outside the hot path
// and outside the tensor-allocator/workspace allowlist.
#pragma once

namespace fixture {
inline int* GrabBuffer(int n) { return new int[n]; }
}  // namespace fixture
