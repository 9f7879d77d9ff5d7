// Parameter section of training checkpoints (rl/checkpoint.h) and critic
// state blobs: binary save/load of a ParamStore by name, through the
// bounded codec in support/binary_io.h.
//
// Format (little endian):
//   magic "EAGLNN1\0" | u32 count | per param:
//     u32 name_len | name bytes | i32 rows | i32 cols | f32 data…
#pragma once

#include <iosfwd>

#include "nn/layers.h"

namespace eagle::nn {

void SaveParams(const ParamStore& store, std::ostream& out);

// Loads values into existing parameters matched by name (shape must
// match). Returns the number of parameters restored; throws on corrupt
// input or shape mismatches.
int LoadParams(ParamStore& store, std::istream& in);

}  // namespace eagle::nn
