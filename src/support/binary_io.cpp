#include "support/binary_io.h"

#include <istream>
#include <ostream>

#include "support/check.h"

namespace eagle::support {

void BinaryWriter::Bytes(const void* data, std::size_t size) {
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(size));
}

BinaryReader::BinaryReader(std::istream& in, const char* what)
    : in_(in), what_(what) {
  const std::istream::pos_type start = in_.tellg();
  in_.seekg(0, std::ios::end);
  end_ = in_.tellg();
  in_.seekg(start);
  EAGLE_CHECK_MSG(in_ && start != std::istream::pos_type(-1),
                  "unreadable " << what_);
}

void BinaryReader::Require(std::uint64_t count, std::size_t item_size) {
  const std::int64_t pos = in_.tellg();
  EAGLE_CHECK_MSG(in_ && pos >= 0 && pos <= end_, "unreadable " << what_);
  const auto left = static_cast<std::uint64_t>(end_ - pos);
  EAGLE_CHECK_MSG(count <= left / item_size,
                  "truncated " << what_ << ": " << count << " x "
                               << item_size << " bytes claimed, " << left
                               << " left");
}

void BinaryReader::Bytes(void* data, std::size_t size) {
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  EAGLE_CHECK_MSG(in_, "truncated " << what_);
}

}  // namespace eagle::support
