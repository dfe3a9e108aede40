// DEFLATE (RFC 1951) and gzip (RFC 1952) implemented from scratch.
//
// This is the lossless back end of every compressor in this repository: the
// paper's FPGA designs (waveSZ, GhostSZ) push their quantization codes
// through the Xilinx gzip core, and the SZ-1.4 CPU baseline runs gzip in
// best_speed mode. Block types stored/fixed/dynamic are all implemented and
// chosen per block by estimated cost.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "deflate/deflate_tables.hpp"
#include "deflate/lz77.hpp"
#include "util/bitio.hpp"

namespace wavesz::deflate {

/// Raw DEFLATE stream (no framing).
std::vector<std::uint8_t> compress(std::span<const std::uint8_t> input,
                                   Level level = Level::Fast);

/// Inverse of compress(); throws wavesz::Error on malformed input. Uses the
/// table-driven fast inflate loop unless reference_decode_enabled() — or a
/// block whose codes defeat the table build — routes it to the bit-at-a-time
/// oracle. Both paths produce identical bytes.
std::vector<std::uint8_t> decompress(std::span<const std::uint8_t> input);

/// decompress() pinned to the bit-at-a-time reference path regardless of the
/// WAVESZ_REFERENCE_DECODE setting; the oracle side of differential tests.
std::vector<std::uint8_t> decompress_reference(
    std::span<const std::uint8_t> input);

/// gzip member (RFC 1952): 10-byte header + DEFLATE + CRC-32 + ISIZE.
std::vector<std::uint8_t> gzip_compress(std::span<const std::uint8_t> input,
                                        Level level = Level::Fast);

/// Inverse of gzip_compress(); validates magic, CRC-32 and ISIZE.
std::vector<std::uint8_t> gzip_decompress(std::span<const std::uint8_t> input);

/// Result of a bounded inflate: the decoded prefix, how many compressed
/// input bytes were consumed producing it (the partial-read figure region
/// decoders report), and whether the stream actually ended.
struct PrefixResult {
  std::vector<std::uint8_t> bytes;
  std::size_t compressed_consumed = 0;
  bool complete = false;
};

/// Inflate only until at least `min_output_bytes` of output exist (checked
/// at DEFLATE block granularity, so the result may overshoot) or the stream
/// ends, whichever is first. The decoded prefix is bit-identical to the
/// leading bytes of a full decompress().
PrefixResult decompress_prefix(std::span<const std::uint8_t> input,
                               std::size_t min_output_bytes);

/// gzip framing over decompress_prefix(). When the stop condition fires
/// before the final block, the member's CRC-32/ISIZE trailer is NOT
/// verified — it covers the whole stream, which was deliberately not
/// decoded; callers (the container region decoders) carry their own
/// per-chunk CRCs. A run that does reach the end verifies the trailer
/// exactly like gzip_decompress().
PrefixResult gzip_decompress_prefix(std::span<const std::uint8_t> input,
                                    std::size_t min_output_bytes);

namespace detail {

/// One walk over a block's tokens: symbol frequencies (end of block
/// included), the extra bits the matches carry, and the raw bytes the
/// block expands to.
struct BlockFreqs {
  std::array<std::uint64_t, kNumLitLen> litlen{};
  std::array<std::uint64_t, kNumDist> dist{};
  std::uint64_t extra_bits = 0;
  std::size_t raw_bytes = 0;
};

BlockFreqs count_freqs(std::span<const Token> tokens);

/// Bits the block `f` was counted from takes with the given code lengths,
/// end of block included and block header excluded: the sum of frequency
/// x code length plus the extra bits. This is what deflate_blocks() weighs
/// to pick stored, fixed or dynamic; it equals the bits the emitter writes.
std::uint64_t block_cost_bits(const BlockFreqs& f,
                              std::span<const std::uint8_t> litlen_lens,
                              std::span<const std::uint8_t> dist_lens);

/// Emit the DEFLATE blocks encoding `tokens`, which must expand exactly to
/// `covered` (needed for the stored-block fallback). Blocks are split every
/// 64 Ki tokens and each picks stored/fixed/dynamic by estimated cost. When
/// `mark_final` is set the last block carries BFINAL=1 (empty token streams
/// then emit one empty fixed block); otherwise the stream is left open for
/// further blocks. Shared by the serial compress() and the parallel chunked
/// engine (parallel.hpp).
void deflate_blocks(BitWriterLSB& bw, std::span<const std::uint8_t> covered,
                    std::span<const Token> tokens, bool mark_final);

/// Z_SYNC_FLUSH marker: a non-final empty stored block. Pads the stream to
/// a byte boundary, so whatever is appended next starts byte-aligned — the
/// property the chunk stitcher relies on for interior stored blocks.
void sync_flush(BitWriterLSB& bw);

}  // namespace detail

}  // namespace wavesz::deflate
