// Golden digests of the compress-side entropy back end.
//
// Pins CRC-32 digests of the gzip members and H* blobs the back end emits
// for fixed inputs, so any change to the bit writers, the Huffman pack or
// DEFLATE block selection that moves a single output bit fails here. The
// inputs come from a 64-bit integer LCG with no floating-point math, so
// every compiler and libm produces the same bytes and the same digests.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "deflate/deflate.hpp"
#include "deflate/parallel.hpp"
#include "sz/container.hpp"
#include "sz/huffman_codec.hpp"
#include "util/bytes.hpp"
#include "util/checksum.hpp"

namespace wavesz {
namespace {

/// Knuth's MMIX LCG; the top 32 bits are the output.
struct Lcg {
  std::uint64_t s;
  std::uint32_t next() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(s >> 32);
  }
};

/// Words drawn from a small vocabulary: long matches, skewed literals.
std::vector<std::uint8_t> text_input(std::size_t n) {
  static constexpr std::string_view kWords[] = {
      "wavefront ", "lorenzo ",  "predictor ", "quantization ", "huffman ",
      "deflate ",   "error ",    "bound ",     "hyperplane ",   "fpga ",
      "pipeline ",  "the ",      "of ",        "and ",          "\n"};
  Lcg g{1};
  std::vector<std::uint8_t> out;
  out.reserve(n);
  while (out.size() < n) {
    const auto w = kWords[g.next() % std::size(kWords)];
    for (char c : w) {
      if (out.size() < n) out.push_back(static_cast<std::uint8_t>(c));
    }
  }
  return out;
}

std::vector<std::uint8_t> random_input(std::size_t n) {
  Lcg g{2};
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(g.next() >> 24);
  return out;
}

/// Long runs of a short period with rare noise: distance-1..8 matches of
/// maximal length dominate.
std::vector<std::uint8_t> repetitive_input(std::size_t n) {
  Lcg g{3};
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>((i / 4096) % 7 + (i % 5));
    if (g.next() % 997 == 0) out[i] = static_cast<std::uint8_t>(g.next());
  }
  return out;
}

/// Quantization-code-like stream: centred on 32768 with a geometric
/// spread (trailing-zero count of an LCG draw) and ~2% unpredictables.
std::vector<std::uint16_t> code_input(std::size_t n) {
  Lcg g{4};
  std::vector<std::uint16_t> out(n);
  for (auto& c : out) {
    const std::uint32_t r = g.next();
    if (r % 50 == 0) {
      c = 0;
      continue;
    }
    int mag = 0;
    for (std::uint32_t v = g.next() | (1u << 20); (v & 1u) == 0; v >>= 1) {
      ++mag;
    }
    mag = mag * 3 + static_cast<int>(r >> 30);
    c = static_cast<std::uint16_t>((r & 1u) ? 32768 + mag : 32768 - mag);
  }
  return out;
}

std::uint32_t digest(std::span<const std::uint8_t> b) { return Crc32::of(b); }

std::uint32_t index_digest(const sz::CodeChunkIndex& idx) {
  ByteWriter w;
  w.u32(idx.chunk_symbols);
  w.u64(idx.payload_byte_offset);
  for (const auto& e : idx.entries) {
    w.u64(e.end_bit);
    w.u64(e.end_element);
    w.u64(e.end_unpred);
    w.u32(e.running_crc);
  }
  return Crc32::of(w.take());
}

struct GzipCase {
  const char* name;
  std::vector<std::uint8_t> input;
  // Digests per level: the serial member, then the force-chunked member
  // (64 KiB chunks), which must not depend on the thread count.
  std::uint32_t fast[2];
  std::uint32_t best[2];
};

TEST(BackendGolden, GzipDigestsArePinned) {
  const auto codes = code_input(200000);
  const auto hstar = sz::huffman_encode(codes, 1);
  GzipCase cases[] = {
      {"text", text_input(300000), {3485869163u, 1292365912u},
       {3768360420u, 1355229964u}},
      {"random", random_input(200000), {4130649274u, 143099068u},
       {3548553252u, 392952647u}},
      {"repetitive", repetitive_input(300000), {1192406864u, 2014384898u},
       {3938658591u, 3020916265u}},
      {"hstar", hstar, {3206846614u, 4222307373u},
       {1736962951u, 3637718579u}},
  };
  for (const auto& c : cases) {
    for (const auto level : {deflate::Level::Fast, deflate::Level::Best}) {
      const auto* want = level == deflate::Level::Fast ? c.fast : c.best;
      SCOPED_TRACE(std::string(c.name) +
                   (level == deflate::Level::Fast ? " Fast" : " Best"));
      EXPECT_EQ(digest(deflate::gzip_compress(c.input, level)), want[0]);
      deflate::ParallelOptions opts;
      opts.chunk_bytes = 64 * 1024;
      opts.force_chunking = true;
      opts.threads = 1;
      EXPECT_EQ(digest(deflate::gzip_compress_parallel(c.input, level, opts)),
                want[1]);
      opts.threads = 4;
      EXPECT_EQ(digest(deflate::gzip_compress_parallel(c.input, level, opts)),
                want[1]);
    }
  }
}

TEST(BackendGolden, HuffmanDigestsArePinned) {
  // 200k symbols clear the encoder's per-thread floor at budget 4, so the
  // spliced parallel pack runs there.
  const auto codes = code_input(200000);
  for (const int budget : {1, 4}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    sz::CodeChunkIndex idx;
    const auto blob = sz::huffman_encode_indexed(codes, budget, 4096, idx);
    EXPECT_EQ(digest(blob), 2550670222u);
    EXPECT_EQ(idx.entries.size(), 49u);
    EXPECT_EQ(index_digest(idx), 2507427172u);
    EXPECT_EQ(digest(sz::huffman_encode(codes, budget)), 2550670222u);
  }
}

}  // namespace
}  // namespace wavesz
