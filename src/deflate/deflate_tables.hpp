// RFC 1951 constant tables: length/distance code bases and extra-bit counts,
// the code-length alphabet permutation, and the fixed Huffman code lengths.
#pragma once

#include <array>
#include <cstdint>

namespace wavesz::deflate {

inline constexpr int kEndOfBlock = 256;
inline constexpr int kNumLitLen = 288;  // 0..287 (286/287 reserved)
inline constexpr int kNumDist = 30;
inline constexpr int kNumClc = 19;  // code-length alphabet

// Length codes 257..285.
inline constexpr std::array<std::uint16_t, 29> kLengthBase = {
    3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23, 27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
inline constexpr std::array<std::uint8_t, 29> kLengthExtra = {
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
    2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};

// Distance codes 0..29.
inline constexpr std::array<std::uint16_t, 30> kDistBase = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,   25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,  769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
inline constexpr std::array<std::uint8_t, 30> kDistExtra = {
    0, 0, 0, 0, 1, 1, 2, 2,  3,  3,  4,  4,  5,  5,  6,
    6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

// Order in which code-length-code lengths appear in the dynamic header.
inline constexpr std::array<std::uint8_t, 19> kClcOrder = {
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15};

namespace detail {

/// zlib's _length_code: indexed by length - 3 (0..255). Each code covers
/// the lengths from its base up to the next code's base; 258 has its own.
inline constexpr std::array<std::uint8_t, 256> kLengthCode = [] {
  std::array<std::uint8_t, 256> t{};
  for (std::size_t c = 0; c < kLengthBase.size(); ++c) {
    const std::size_t end =
        c + 1 < kLengthBase.size() ? kLengthBase[c + 1] : 259;
    for (std::size_t len = kLengthBase[c]; len < end; ++len) {
      t[len - 3] = static_cast<std::uint8_t>(c);
    }
  }
  return t;
}();

/// zlib's _dist_code: distances 1..256 index it at distance - 1, larger
/// ones at 256 + ((distance - 1) >> 7). The second half is exact because
/// every code above distance 256 starts at 1 + a multiple of 128.
inline constexpr std::array<std::uint8_t, 512> kDistCode = [] {
  std::array<std::uint8_t, 512> t{};
  for (std::size_t c = 0; c < kDistBase.size(); ++c) {
    const std::size_t end =
        c + 1 < kDistBase.size() ? kDistBase[c + 1] : 32769;
    for (std::size_t d = kDistBase[c]; d < end; ++d) {
      t[d <= 256 ? d - 1 : 256 + ((d - 1) >> 7)] =
          static_cast<std::uint8_t>(c);
    }
  }
  return t;
}();

}  // namespace detail

/// Length code index (0-based into kLengthBase) for a match length 3..258.
inline int length_code(int length) {
  return detail::kLengthCode[static_cast<std::size_t>(length - 3)];
}

/// Distance code index for a distance 1..32768.
inline int distance_code(int distance) {
  const auto d = static_cast<std::size_t>(distance - 1);
  return detail::kDistCode[d < 256 ? d : 256 + (d >> 7)];
}

/// Fixed lit/len code lengths per RFC 1951 §3.2.6.
std::array<std::uint8_t, kNumLitLen> fixed_litlen_lengths();

/// Fixed distance code lengths (5 bits each; table has 30 usable codes).
std::array<std::uint8_t, kNumDist> fixed_dist_lengths();

}  // namespace wavesz::deflate
