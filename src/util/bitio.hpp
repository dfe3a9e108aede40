// Bit-level I/O in both bit orders.
//
// DEFLATE (RFC 1951) packs bits LSB-first within each byte, while the
// customized Huffman coder of SZ (and most textbook canonical coders) is most
// naturally expressed MSB-first. Both flavours are provided; each reader
// raises wavesz::Error on overrun so corrupted streams fail loudly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace wavesz {

namespace detail {

/// Byte buffer behind both bit writers. It keeps a few KiB of writable
/// room ahead of a write cursor, so a 32-bit flush is one unaligned store
/// instead of four push_back calls, each with its own capacity check.
class WordBuffer {
 public:
  void put32_le(std::uint32_t w) {
    room(4);
    store_le32(buf_.data() + len_, w);
    len_ += 4;
  }
  void put32_be(std::uint32_t w) {
    room(4);
    store_be32(buf_.data() + len_, w);
    len_ += 4;
  }
  void put8(std::uint8_t b) {
    room(1);
    buf_[len_++] = b;
  }
  void put(std::span<const std::uint8_t> s) {
    if (s.empty()) return;  // memcpy must not see a null source
    room(s.size());
    copy_bytes(buf_.data() + len_, s.data(), s.size());
    len_ += s.size();
  }
  /// Write cursor with room for `n` more bytes; hand the end of what was
  /// written back through advance_to().
  std::uint8_t* cursor(std::size_t n) {
    room(n);
    return buf_.data() + len_;
  }
  void advance_to(const std::uint8_t* end) {
    len_ = static_cast<std::size_t>(end - buf_.data());
  }
  std::size_t size() const { return len_; }
  std::vector<std::uint8_t> take() {
    buf_.resize(len_);
    len_ = 0;
    return std::move(buf_);
  }

 private:
  /// resize() zero-fills, so the size grows only by what is asked for
  /// plus kSlack; the vector still doubles its capacity underneath, and
  /// capacity never written is never touched (it stays out of RSS).
  void room(std::size_t n) {
    if (buf_.size() - len_ < n) buf_.resize(len_ + n + kSlack);
  }
  static constexpr std::size_t kSlack = 4096;
  std::vector<std::uint8_t> buf_;
  std::size_t len_ = 0;
};

/// The low `n` bits set, for n in 0..32.
inline std::uint64_t low_mask(int n) { return (std::uint64_t{1} << n) - 1; }

}  // namespace detail

/// LSB-first bit writer (RFC 1951 convention) over a 64-bit accumulator.
/// Pending bits sit in the low `fill_` bits (first stream bit in bit 0);
/// whenever a write leaves 32 or more pending, the low 32 go out in one
/// store. Since fill_ <= 32 between calls, a 32-bit write always fits.
class BitWriterLSB {
 public:
  void bits(std::uint32_t value, int n) {
    WAVESZ_ASSERT(n >= 0 && n <= 32, "bit count out of range");
    acc_ |= (value & detail::low_mask(n)) << fill_;
    fill_ += n;
    if (fill_ >= 32) {
      out_.put32_le(static_cast<std::uint32_t>(acc_));
      acc_ >>= 32;
      fill_ -= 32;
    }
  }

  /// Pad to a byte boundary with zero bits (DEFLATE stored-block alignment).
  /// The padding may leave exactly 32 bits pending; the next write stores
  /// them.
  void align_byte() { fill_ = (fill_ + 7) & ~7; }

  void byte(std::uint8_t b) {
    WAVESZ_ASSERT(fill_ % 8 == 0, "byte() requires byte alignment");
    bits(b, 8);
  }

  /// Append the first `nbits` bits of `src` (LSB-first within each byte),
  /// regardless of this writer's current bit phase. This is the primitive
  /// behind stitching independently produced DEFLATE chunk streams into one
  /// member; when both sides are byte-aligned it degenerates to a memcpy.
  void append(std::span<const std::uint8_t> src, std::size_t nbits) {
    WAVESZ_ASSERT(nbits <= src.size() * 8, "append past end of source");
    const std::size_t full = nbits / 8;
    if (fill_ % 8 == 0) {
      flush_bytes();
      out_.put(src.first(full));
    } else {
      std::size_t i = 0;
      for (; i + 4 <= full; i += 4) bits(load_le32(src.data() + i), 32);
      for (; i < full; ++i) bits(src[i], 8);
    }
    const int rem = static_cast<int>(nbits % 8);
    if (rem > 0) bits(src[full], rem);
  }

  std::size_t bit_count() const {
    return out_.size() * 8 + static_cast<std::size_t>(fill_);
  }
  std::vector<std::uint8_t> take() {
    align_byte();
    flush_bytes();
    return out_.take();
  }

 private:
  /// Store the whole pending bytes; requires byte alignment.
  void flush_bytes() {
    for (; fill_ > 0; fill_ -= 8) {
      out_.put8(static_cast<std::uint8_t>(acc_));
      acc_ >>= 8;
    }
  }

  detail::WordBuffer out_;
  std::uint64_t acc_ = 0;
  int fill_ = 0;
};

/// LSB-first bit reader (RFC 1951 convention) over a 64-bit accumulator.
///
/// The accumulator is topped up eight bytes at a time while the cursor is at
/// least a word away from the tail, then byte-at-a-time over the final
/// stretch. Invariant throughout: `pos_ * 8 - fill_` equals the number of
/// bits consumed, so a refill's word load always ORs either fresh bits or
/// bit-identical copies of bits already sitting above `fill_` — reloads are
/// idempotent and the reader never rewinds `pos_`.
class BitReaderLSB {
 public:
  explicit BitReaderLSB(std::span<const std::uint8_t> s) : s_(s) {}

  /// Next `n` bits (first stream bit in bit 0) without consuming them,
  /// zero-padded when fewer than `n` bits remain. n <= 32.
  std::uint32_t peek(int n) {
    WAVESZ_ASSERT(n >= 0 && n <= 32, "bit count out of range");
    if (fill_ < n) refill();
    return static_cast<std::uint32_t>(
        acc_ & ((n >= 32) ? 0xffffffffull : ((1ull << n) - 1)));
  }

  /// Advance by `n` bits; raises wavesz::Error("bitstream truncated") when
  /// the stream holds fewer than `n` more bits.
  void consume(int n) {
    if (fill_ < n) {
      refill();
      WAVESZ_REQUIRE(fill_ >= n, "bitstream truncated");
    }
    acc_ >>= n;
    fill_ -= n;
  }

  std::uint32_t bits(int n) {
    const std::uint32_t v = peek(n);
    consume(n);
    return v;
  }

  std::uint32_t bit() { return bits(1); }

  /// Drop buffered bits up to the next byte boundary.
  void align_byte() {
    const int drop = fill_ % 8;
    acc_ >>= drop;
    fill_ -= drop;
  }

  std::uint8_t byte() {
    if (fill_ >= 8) {
      auto v = static_cast<std::uint8_t>(acc_ & 0xff);
      acc_ >>= 8;
      fill_ -= 8;
      return v;
    }
    WAVESZ_ASSERT(fill_ == 0, "byte() requires byte alignment");
    WAVESZ_REQUIRE(pos_ < s_.size(), "bitstream truncated");
    // Bypassing the accumulator invalidates any unclaimed lookahead bits a
    // bulk refill left above fill_; drop them so the next refill re-reads.
    acc_ = 0;
    return s_[pos_++];
  }

  /// Copy `n` bytes out in bulk (stored DEFLATE blocks). Requires byte
  /// alignment; drains buffered whole bytes, then block-copies the rest.
  void read_bytes(std::uint8_t* dst, std::size_t n) {
    WAVESZ_ASSERT(fill_ % 8 == 0, "read_bytes() requires byte alignment");
    while (n > 0 && fill_ >= 8) {
      *dst++ = static_cast<std::uint8_t>(acc_ & 0xff);
      acc_ >>= 8;
      fill_ -= 8;
      --n;
    }
    WAVESZ_REQUIRE(n <= s_.size() - pos_, "bitstream truncated");
    if (n > 0) {
      acc_ = 0;  // see byte(): direct span reads invalidate the lookahead
      copy_bytes(dst, s_.data() + pos_, n);
      pos_ += n;
    }
  }

  /// Bytes consumed from the underlying span (buffered bits count as read).
  std::size_t consumed() const { return pos_ - static_cast<std::size_t>(fill_) / 8; }

 private:
  void refill() {
    if (pos_ + 8 <= s_.size()) {
      // GCC 12's VRP warns -Warray-bounds on the guarded dead path when
      // this inlines against a buffer it knows is smaller than 8 bytes
      // (e.g. a constant test vector); the branch condition makes the
      // 8-byte load unreachable there.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
      acc_ |= load_le64(s_.data() + pos_) << fill_;
#pragma GCC diagnostic pop
      pos_ += static_cast<std::size_t>((63 - fill_) >> 3);
      fill_ |= 56;
    } else {
      while (fill_ <= 56 && pos_ < s_.size()) {
        acc_ |= static_cast<std::uint64_t>(s_[pos_++]) << fill_;
        fill_ += 8;
      }
    }
  }

  std::span<const std::uint8_t> s_;
  std::size_t pos_ = 0;
  std::uint64_t acc_ = 0;
  int fill_ = 0;
};

/// MSB-first bit writer (customized Huffman convention) over a 64-bit
/// accumulator. Pending bits sit in the low `fill_` bits, the first stream
/// bit highest; whenever 32 or more are pending, the oldest 32 go out in one
/// big-endian store. Bits above `fill_` are stale and never stored.
class BitWriterMSB {
 public:
  void bits(std::uint32_t value, int n) {
    WAVESZ_ASSERT(n >= 0 && n <= 32, "bit count out of range");
    acc_ = (acc_ << n) | (value & detail::low_mask(n));
    fill_ += n;
    if (fill_ >= 32) {
      fill_ -= 32;
      out_.put32_be(static_cast<std::uint32_t>(acc_ >> fill_));
    }
  }

  /// Write every symbol's table-coded bits. `table[sym]` holds the code
  /// left-aligned at bit 31 and its length (at most 24) in the low 8 bits.
  /// Same output as one bits() call per symbol, but branch-free: the loop
  /// keeps the pending bits left-aligned at bit 63, adds two codes (at most
  /// 48 bits on top of fewer than 8 pending), then stores 8 bytes and keeps
  /// only the whole ones.
  void codes(std::span<const std::uint16_t> syms,
             std::span<const std::uint32_t> table) {
    for (; fill_ >= 8; fill_ -= 8) {
      out_.put8(static_cast<std::uint8_t>(acc_ >> (fill_ - 8)));
    }
    std::uint64_t acc = fill_ > 0 ? acc_ << (64 - fill_) : 0;
    int fill = fill_;
    constexpr std::size_t kBatch = 4096;
    for (std::size_t at = 0; at < syms.size(); at += kBatch) {
      const std::size_t n = std::min(kBatch, syms.size() - at);
      // n codes advance the cursor by at most 3n + 1 bytes, and the last
      // 8-byte store may reach 7 past it.
      std::uint8_t* p = out_.cursor(3 * n + 8);
      const auto put = [&](std::uint16_t sym) {
        const std::uint32_t e = table[sym];
        acc |= (static_cast<std::uint64_t>(e & ~0xffu) << 32) >> fill;
        fill += static_cast<int>(e & 0xffu);
      };
      const auto flush = [&] {
        store_be64(p, acc);
        p += fill >> 3;
        acc <<= fill & ~7;
        fill &= 7;
      };
      const std::uint16_t* s = syms.data() + at;
      std::size_t i = 0;
      for (; i + 2 <= n; i += 2) {
        put(s[i]);
        put(s[i + 1]);
        flush();
      }
      if (i < n) {
        put(s[i]);
        flush();
      }
      out_.advance_to(p);
    }
    acc_ = fill > 0 ? acc >> (64 - fill) : 0;
    fill_ = fill;
  }

  std::size_t bit_count() const {
    return out_.size() * 8 + static_cast<std::size_t>(fill_);
  }

  /// Zero-pad the last byte and hand over the buffer.
  std::vector<std::uint8_t> take() {
    const int pad = (8 - fill_ % 8) % 8;
    acc_ <<= pad;
    for (fill_ += pad; fill_ > 0;) {
      fill_ -= 8;
      out_.put8(static_cast<std::uint8_t>(acc_ >> fill_));
    }
    return out_.take();
  }

 private:
  detail::WordBuffer out_;
  std::uint64_t acc_ = 0;
  int fill_ = 0;
};

/// MSB-first bit reader (customized Huffman convention) over a 64-bit
/// accumulator with the next stream bit in bit 63. Same refill scheme and
/// `pos_ * 8 - fill_` consumed-bits invariant as BitReaderLSB, mirrored for
/// big-endian bit order, so position() stays bit-exact for the trailing
/// `payload_bits` checks in the SZ Huffman container.
class BitReaderMSB {
 public:
  explicit BitReaderMSB(std::span<const std::uint8_t> s) : s_(s) {}

  /// Seek-to-bit-offset construction: start reading at absolute `start_bit`
  /// of `s`. position() keeps reporting absolute stream bits, so a chunked
  /// decoder can seek to a recorded offset and still run the same trailing
  /// `payload_bits` checks as a from-the-top decode.
  BitReaderMSB(std::span<const std::uint8_t> s, std::size_t start_bit) {
    WAVESZ_REQUIRE(start_bit <= s.size() * 8, "bit seek past end of stream");
    s_ = s.subspan(start_bit / 8);
    base_bits_ = (start_bit / 8) * 8;
    const int phase = static_cast<int>(start_bit % 8);
    if (phase > 0) consume(phase);
  }

  /// Next `n` bits (first stream bit as the MSB of the result) without
  /// consuming them, zero-padded when fewer than `n` bits remain. n <= 32.
  std::uint32_t peek(int n) {
    WAVESZ_ASSERT(n >= 0 && n <= 32, "bit count out of range");
    if (fill_ < n) refill();
    return n == 0 ? 0u : static_cast<std::uint32_t>(acc_ >> (64 - n));
  }

  /// Advance by `n` bits; raises wavesz::Error("bitstream truncated") when
  /// the stream holds fewer than `n` more bits.
  void consume(int n) {
    if (fill_ < n) {
      refill();
      WAVESZ_REQUIRE(fill_ >= n, "bitstream truncated");
    }
    acc_ <<= n;
    fill_ -= n;
  }

  std::uint32_t bits(int n) {
    const std::uint32_t v = peek(n);
    consume(n);
    return v;
  }

  std::uint32_t bit() { return bits(1); }

  /// Exact number of bits consumed so far, absolute within the stream the
  /// reader was constructed over (seek offsets included).
  std::size_t position() const {
    return base_bits_ + pos_ * 8 - static_cast<std::size_t>(fill_);
  }

 private:
  void refill() {
    if (pos_ + 8 <= s_.size()) {
      // Same GCC 12 -Warray-bounds false positive as BitReaderLSB::refill.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
      acc_ |= load_be64(s_.data() + pos_) >> fill_;
#pragma GCC diagnostic pop
      pos_ += static_cast<std::size_t>((63 - fill_) >> 3);
      fill_ |= 56;
    } else {
      while (fill_ <= 56 && pos_ < s_.size()) {
        acc_ |= static_cast<std::uint64_t>(s_[pos_++]) << (56 - fill_);
        fill_ += 8;
      }
    }
  }

  std::span<const std::uint8_t> s_;
  std::size_t pos_ = 0;
  std::size_t base_bits_ = 0;
  std::uint64_t acc_ = 0;
  int fill_ = 0;
};

}  // namespace wavesz
