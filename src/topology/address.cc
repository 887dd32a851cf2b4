#include "topology/address.h"

#include <limits>
#include <sstream>

#include "common/error.h"

namespace dcn::topo {

std::uint64_t DigitsToIndex(std::span<const int> digits, int base) {
  DCN_REQUIRE(base >= 2, "digit base must be >= 2");
  std::uint64_t index = 0;
  for (std::size_t i = digits.size(); i > 0; --i) {
    const int digit = digits[i - 1];
    DCN_REQUIRE(digit >= 0 && digit < base, "digit out of range for base");
    index = index * static_cast<std::uint64_t>(base) + static_cast<std::uint64_t>(digit);
  }
  return index;
}

Digits IndexToDigits(std::uint64_t index, int base, int count) {
  DCN_REQUIRE(base >= 2, "digit base must be >= 2");
  DCN_REQUIRE(count >= 0, "digit count must be non-negative");
  Digits digits(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    digits[i] = static_cast<int>(index % static_cast<std::uint64_t>(base));
    index /= static_cast<std::uint64_t>(base);
  }
  DCN_REQUIRE(index == 0, "index does not fit in the requested digit count");
  return digits;
}

std::uint64_t IndexInsertingDigit(std::uint64_t rest, int base, int pos,
                                  int digit) {
  DCN_REQUIRE(base >= 2, "digit base must be >= 2");
  DCN_REQUIRE(pos >= 0, "digit position must be non-negative");
  DCN_REQUIRE(digit >= 0 && digit < base, "digit out of range for base");
  const std::uint64_t weight = CheckedPow(static_cast<std::uint64_t>(base),
                                          static_cast<unsigned>(pos));
  const std::uint64_t high = rest / weight;
  const std::uint64_t low = rest % weight;
  return (high * static_cast<std::uint64_t>(base) +
          static_cast<std::uint64_t>(digit)) *
             weight +
         low;
}

std::uint64_t DigitsToIndexSkipping(std::span<const int> digits, int base,
                                    int skip) {
  DCN_REQUIRE(skip >= 0 && static_cast<std::size_t>(skip) < digits.size(),
              "skip position out of range");
  std::uint64_t index = 0;
  for (std::size_t i = digits.size(); i > 0; --i) {
    if (static_cast<int>(i - 1) == skip) continue;
    const int digit = digits[i - 1];
    DCN_REQUIRE(digit >= 0 && digit < base, "digit out of range for base");
    index = index * static_cast<std::uint64_t>(base) + static_cast<std::uint64_t>(digit);
  }
  return index;
}

std::string DigitsToString(std::span<const int> digits, int base) {
  std::ostringstream out;
  const bool dotted = base > 10;
  for (std::size_t i = digits.size(); i > 0; --i) {
    out << digits[i - 1];
    if (dotted && i > 1) out << ".";
  }
  return out.str();
}

int HammingDistance(std::span<const int> a, std::span<const int> b) {
  DCN_REQUIRE(a.size() == b.size(), "Hamming distance needs equal lengths");
  int distance = 0;
  for (std::size_t i = 0; i < a.size(); ++i) distance += a[i] != b[i] ? 1 : 0;
  return distance;
}

std::uint64_t CheckedPow(std::uint64_t base, unsigned exponent) {
  std::uint64_t result = 1;
  for (unsigned i = 0; i < exponent; ++i) {
    DCN_REQUIRE(result <= std::numeric_limits<std::uint64_t>::max() / base,
                "topology size overflows 64 bits");
    result *= base;
  }
  return result;
}

std::uint64_t CheckedMul(std::uint64_t a, std::uint64_t b) {
  DCN_REQUIRE(b == 0 || a <= std::numeric_limits<std::uint64_t>::max() / b,
              "topology size overflows 64 bits");
  return a * b;
}

std::uint64_t CheckedAdd(std::uint64_t a, std::uint64_t b) {
  DCN_REQUIRE(a <= std::numeric_limits<std::uint64_t>::max() - b,
              "topology size overflows 64 bits");
  return a + b;
}

}  // namespace dcn::topo
