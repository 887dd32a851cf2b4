// Mixed-radix digit addressing shared by the cube-based topologies.
//
// A digit vector stores a_0 .. a_k little-endian: digits[l] is the level-l
// digit, so level-l routing touches index l directly. String rendering is
// big-endian ("a_k...a_0"), matching how the papers print addresses.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dcn::topo {

using Digits = std::vector<int>;

// digits interpreted in the given base; digits[i] has weight base^i.
std::uint64_t DigitsToIndex(std::span<const int> digits, int base);

// Inverse of DigitsToIndex for a fixed digit count.
Digits IndexToDigits(std::uint64_t index, int base, int count);

// Inverse of DigitsToIndexSkipping: splice `digit` in at level `pos` of the
// skip-compressed `rest`. The result must fit 64 bits (callers validate
// topology sizes up front).
std::uint64_t IndexInsertingDigit(std::uint64_t rest, int base, int pos,
                                  int digit);

// Index of `digits` with position `skip` removed (used to identify the
// level-`skip` switch shared by servers differing only in that digit).
std::uint64_t DigitsToIndexSkipping(std::span<const int> digits, int base, int skip);

// "a_k...a_0" with separating dots when base > 10, e.g. "3.0.1".
std::string DigitsToString(std::span<const int> digits, int base);

// Number of positions where the two equal-length vectors differ.
int HammingDistance(std::span<const int> a, std::span<const int> b);

// base^exponent with overflow check (throws InvalidArgument on overflow);
// topology sizes must stay representable.
std::uint64_t CheckedPow(std::uint64_t base, unsigned exponent);

// a*b / a+b with the same overflow contract as CheckedPow, so derived counts
// (switch totals, link totals) can be validated without constructing anything.
std::uint64_t CheckedMul(std::uint64_t a, std::uint64_t b);
std::uint64_t CheckedAdd(std::uint64_t a, std::uint64_t b);

}  // namespace dcn::topo
