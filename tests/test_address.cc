#include "topology/address.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/error.h"

namespace dcn::topo {
namespace {

TEST(AddressTest, DigitsToIndexLittleEndianWeights) {
  // digits[i] has weight base^i: [1, 2, 3] base 4 = 1 + 2*4 + 3*16 = 57.
  const Digits digits{1, 2, 3};
  EXPECT_EQ(DigitsToIndex(digits, 4), 57u);
}

TEST(AddressTest, RoundTripAllValues) {
  const int base = 3;
  const int count = 4;
  for (std::uint64_t index = 0; index < 81; ++index) {
    const Digits digits = IndexToDigits(index, base, count);
    ASSERT_EQ(digits.size(), 4u);
    EXPECT_EQ(DigitsToIndex(digits, base), index);
  }
}

TEST(AddressTest, IndexTooLargeThrows) {
  EXPECT_THROW(IndexToDigits(8, 2, 3), InvalidArgument);  // 8 needs 4 bits
  EXPECT_NO_THROW(IndexToDigits(7, 2, 3));
}

TEST(AddressTest, DigitOutOfRangeThrows) {
  const Digits digits{5, 0};
  EXPECT_THROW(DigitsToIndex(digits, 4), InvalidArgument);
  EXPECT_THROW(DigitsToIndex(Digits{-1}, 4), InvalidArgument);
}

TEST(AddressTest, SkippingRemovesOnePosition) {
  const Digits digits{1, 2, 3};  // base 4
  // Skip position 1: remaining [1, 3] -> 1 + 3*4 = 13.
  EXPECT_EQ(DigitsToIndexSkipping(digits, 4, 1), 13u);
  // Skip position 0: [2, 3] -> 2 + 3*4 = 14.
  EXPECT_EQ(DigitsToIndexSkipping(digits, 4, 0), 14u);
  // Skip position 2: [1, 2] -> 1 + 2*4 = 9.
  EXPECT_EQ(DigitsToIndexSkipping(digits, 4, 2), 9u);
  EXPECT_THROW(DigitsToIndexSkipping(digits, 4, 3), InvalidArgument);
}

TEST(AddressTest, SkippingIsInjectivePerLevel) {
  // Two addresses that differ only at the skipped position collide; any
  // other difference must not.
  const Digits a{1, 2, 3};
  const Digits b{0, 2, 3};
  const Digits c{1, 0, 3};
  EXPECT_EQ(DigitsToIndexSkipping(a, 4, 0), DigitsToIndexSkipping(b, 4, 0));
  EXPECT_NE(DigitsToIndexSkipping(a, 4, 0), DigitsToIndexSkipping(c, 4, 0));
}

TEST(AddressTest, ToStringBigEndian) {
  EXPECT_EQ(DigitsToString(Digits{1, 2, 3}, 4), "321");
  EXPECT_EQ(DigitsToString(Digits{11, 0, 3}, 16), "3.0.11");
  EXPECT_EQ(DigitsToString(Digits{}, 4), "");
}

TEST(AddressTest, HammingDistance) {
  EXPECT_EQ(HammingDistance(Digits{1, 2, 3}, Digits{1, 2, 3}), 0);
  EXPECT_EQ(HammingDistance(Digits{1, 2, 3}, Digits{0, 2, 1}), 2);
  EXPECT_THROW(HammingDistance(Digits{1}, Digits{1, 2}), InvalidArgument);
}

TEST(AddressTest, InsertingDigitInvertsSkipping) {
  // Splicing the removed digit back in restores the index, on every index
  // and position.
  const int base = 5;
  const int count = 4;
  for (std::uint64_t index = 0; index < 625; ++index) {
    const Digits digits = IndexToDigits(index, base, count);
    for (int pos = 0; pos < count; ++pos) {
      const std::uint64_t rest = DigitsToIndexSkipping(digits, base, pos);
      ASSERT_EQ(IndexInsertingDigit(rest, base, pos, digits[pos]), index);
    }
  }
}

TEST(AddressTest, CheckedMulAndAdd) {
  EXPECT_EQ(CheckedMul(3, 7), 21u);
  EXPECT_EQ(CheckedMul(std::uint64_t{1} << 32, 2), std::uint64_t{1} << 33);
  EXPECT_EQ(CheckedMul(~std::uint64_t{0}, 0), 0u);
  EXPECT_EQ(CheckedMul(~std::uint64_t{0}, 1), ~std::uint64_t{0});
  EXPECT_THROW(CheckedMul(std::uint64_t{1} << 32, std::uint64_t{1} << 32),
               InvalidArgument);

  EXPECT_EQ(CheckedAdd(2, 3), 5u);
  EXPECT_EQ(CheckedAdd(~std::uint64_t{0}, 0), ~std::uint64_t{0});
  EXPECT_THROW(CheckedAdd(~std::uint64_t{0}, 1), InvalidArgument);
}

TEST(AddressTest, CheckedPow) {
  EXPECT_EQ(CheckedPow(2, 0), 1u);
  EXPECT_EQ(CheckedPow(2, 10), 1024u);
  EXPECT_EQ(CheckedPow(10, 6), 1000000u);
  EXPECT_THROW(CheckedPow(2, 64), InvalidArgument);
}

}  // namespace
}  // namespace dcn::topo
