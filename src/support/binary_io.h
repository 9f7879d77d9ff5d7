// The one binary codec behind every persisted byte: training checkpoints
// (rl/checkpoint.h) and the sections embedded in them — parameters
// (nn/serialize.h), Adam slots (nn/adam.h) and environment / critic
// state blobs.
//
// Values go out in host byte order (little endian on every supported
// target): PODs raw, strings and int32 vectors behind a u32 count, blobs
// behind a u64 length. The reader checks every read and accepts a length
// only when that many bytes remain in the stream, so a corrupt or
// truncated file is rejected — std::logic_error through EAGLE_CHECK —
// before anything is allocated for it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <type_traits>
#include <vector>

namespace eagle::support {

class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& out) : out_(out) {}

  void Bytes(const void* data, std::size_t size);
  template <typename T>
  void Pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    Bytes(&value, sizeof(value));
  }
  void String(const std::string& s) { Sized<std::uint32_t>(s); }
  void I32Vector(const std::vector<std::int32_t>& v) {
    Sized<std::uint32_t>(v);
  }
  void Blob(const std::string& s) { Sized<std::uint64_t>(s); }

 private:
  template <typename Length, typename Container>
  void Sized(const Container& items) {
    Pod(static_cast<Length>(items.size()));
    Bytes(items.data(), items.size() * sizeof(typename Container::value_type));
  }

  std::ostream& out_;
};

class BinaryReader {
 public:
  // Reads from the stream's current position to its end, which must be
  // seekable (file and string streams are). `what` names the format in
  // error messages.
  BinaryReader(std::istream& in, const char* what);

  void Bytes(void* data, std::size_t size);
  template <typename T>
  T Pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    Bytes(&value, sizeof(value));
    return value;
  }
  std::string String() { return Sized<std::string>(Pod<std::uint32_t>()); }
  std::vector<std::int32_t> I32Vector() {
    return Sized<std::vector<std::int32_t>>(Pod<std::uint32_t>());
  }
  std::string Blob() { return Sized<std::string>(Pod<std::uint64_t>()); }
  std::vector<float> Floats(std::uint64_t count) {
    return Sized<std::vector<float>>(count);
  }

 private:
  // Throws unless `count` items of `item_size` bytes remain. Fixed-size
  // reads skip it: their buffer already exists and a short read throws.
  void Require(std::uint64_t count, std::size_t item_size);
  // `count` items, checked against the bytes left before allocating.
  template <typename Container>
  Container Sized(std::uint64_t count) {
    using Item = typename Container::value_type;
    Require(count, sizeof(Item));
    Container items(count, Item{});
    Bytes(items.data(), count * sizeof(Item));
    return items;
  }

  std::istream& in_;
  const char* what_;
  std::int64_t end_ = 0;
};

}  // namespace eagle::support
