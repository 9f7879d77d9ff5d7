#include "nn/serialize.h"

#include <cstring>

#include "support/binary_io.h"
#include "support/check.h"
#include "support/log.h"

namespace eagle::nn {

namespace {
constexpr char kMagic[8] = {'E', 'A', 'G', 'L', 'N', 'N', '1', '\0'};
}

void SaveParams(const ParamStore& store, std::ostream& stream) {
  support::BinaryWriter out(stream);
  out.Bytes(kMagic, sizeof(kMagic));
  out.Pod(static_cast<std::uint32_t>(store.params().size()));
  for (const auto& p : store.params()) {
    out.String(p->name);
    out.Pod(static_cast<std::int32_t>(p->value.rows()));
    out.Pod(static_cast<std::int32_t>(p->value.cols()));
    out.Bytes(p->value.data(),
              static_cast<std::size_t>(p->value.size()) * sizeof(float));
  }
}

int LoadParams(ParamStore& store, std::istream& stream) {
  support::BinaryReader in(stream, "parameter section");
  char magic[8];
  in.Bytes(magic, sizeof(magic));
  EAGLE_CHECK_MSG(std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
                  "bad parameter section magic");
  const auto count = in.Pod<std::uint32_t>();
  int restored = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string name = in.String();
    const auto rows = in.Pod<std::int32_t>();
    const auto cols = in.Pod<std::int32_t>();
    EAGLE_CHECK_MSG(rows >= 0 && cols >= 0, "corrupt shape for " << name);
    std::vector<float> data = in.Floats(static_cast<std::uint64_t>(rows) *
                                        static_cast<std::uint64_t>(cols));
    Parameter* p = store.Find(name);
    if (p == nullptr) {
      EAGLE_LOG(Warn) << "checkpoint param " << name << " not in store";
      continue;
    }
    EAGLE_CHECK_MSG(p->value.rows() == rows && p->value.cols() == cols,
                    "shape mismatch for " << name);
    p->value = Tensor::FromData(rows, cols, std::move(data));
    ++restored;
  }
  return restored;
}

}  // namespace eagle::nn
