// 64-bit FNV-1a digest of a task's deterministic outputs. Doubles enter by
// their exact bit pattern, so a digest match means byte-identical results.
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

class Digest {
 public:
  template <std::integral T>
  Digest& Add(T value) {
    return Word(static_cast<std::uint64_t>(value));
  }
  Digest& Add(double value);
  Digest& Add(std::string_view text);

  std::uint64_t Value() const { return hash_; }

 private:
  Digest& Word(std::uint64_t value);
  void Bytes(const void* data, std::size_t size);

  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::string Hex(std::uint64_t digest);

}  // namespace perfbench
