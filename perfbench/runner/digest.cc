#include "digest.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

void Digest::Bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 0x100000001b3ull;
  }
}

Digest& Digest::Word(std::uint64_t value) {
  Bytes(&value, sizeof value);
  return *this;
}

Digest& Digest::Add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return Word(bits);
}

Digest& Digest::Add(std::string_view text) {
  Word(text.size());
  Bytes(text.data(), text.size());
  return *this;
}

std::string Hex(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace perfbench
