#include "sz/wavefront_pqd.hpp"

#include <algorithm>
#include <atomic>
#include <bit>

#include "telemetry/span_names.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace wavesz::sz {
namespace {

using detail::FpOps;
using detail::Padded;
using detail::Shape;
using detail::TileBox;

// Tile extents. The inner (fastest-varying) axis gets the widest tile so a
// tile row stays a contiguous, vectorizable run; the outer axes stay square
// enough that a 512x512 grid still yields 8 tiles per diagonal for the
// threads to share. The 2D edge is also big enough that interior
// anti-diagonal runs fill whole SIMD chunks, and small enough that a tile's
// working set (4 arrays x 64 rows) stays cache-resident.
constexpr Shape kTile2d{64, 64, 1};
constexpr Shape kTile3d{16, 16, 64};

Shape tile_of(const Dims& dims) { return dims.rank >= 3 ? kTile3d : kTile2d; }

/// POD view of the quantizer for the simd kernels (which must not depend on
/// the sz layer).
simd::QuantSpec quant_spec(const LinearQuantizer& q) {
  return {q.precision(), q.inv_precision(),
          static_cast<std::int64_t>(q.capacity()),
          static_cast<std::int64_t>(q.radius())};
}

/// The vectorized tile path covers the 1-layer Lorenzo rank-2 stencil (the
/// shape vecSZ targets); everything else runs the scalar per-point steps
/// regardless of the dispatch level.
bool simd_pqd_eligible(const Dims& dims, PredictorKind kind) {
  return kind == PredictorKind::Lorenzo1Layer && dims.rank == 2 &&
         simd::active() != simd::Level::Scalar;
}

/// Runs `body(i0, i1, i2, i)` over every point of `b` in raster order.
template <typename Body>
void for_box_points(const TileBox& b, const Shape& s, Body&& body) {
  for (std::size_t i0 = b.lo0; i0 < b.hi0; ++i0) {
    for (std::size_t i1 = b.lo1; i1 < b.hi1; ++i1) {
      std::size_t i = (i0 * s.n1 + i1) * s.n2 + b.lo2;
      for (std::size_t i2 = b.lo2; i2 < b.hi2; ++i2, ++i) {
        body(i0, i1, i2, i);
      }
    }
  }
}

/// Compress-side PQD of one rank-2 tile in tile-local anti-diagonal order:
/// grid-border lanes (i0 == 0 or i1 == 0, reduced stencil) are peeled to
/// scalar pqd_step, interior lanes run through simd::pqd2d_diag in
/// kMaxDiagLanes chunks, and unpredictable lanes get their history patched
/// (truncation roundtrip) before the next diagonal — the exact writeback
/// order of the raster kernel, just revisited. Requires every tile above
/// and left of this one to be complete.
template <typename T>
void pqd_tile_simd(const T* data, T* rec, std::uint16_t* codes,
                   const Padded<T>& padded, const LinearQuantizer& q,
                   const Dims& dims, PredictorKind kind,
                   const simd::QuantSpec& spec, std::size_t s0,
                   const TileBox& b) {
  const std::size_t h = b.hi0 - b.lo0, w = b.hi1 - b.lo1;
  const std::size_t st = s0 - 1;
  for (std::size_t ld = 0; ld + 1 < h + w; ++ld) {
    std::size_t l0 = ld >= w ? ld - w + 1 : 0;
    std::size_t l0end = std::min(h, ld + 1);
    if (b.lo0 == 0 && l0 == 0) {
      // Lane (0, lo1 + ld): top grid row, reduced stencil.
      const std::size_t i1 = b.lo1 + ld;
      detail::pqd_step(data, rec, codes, padded, q, dims, kind, true, s0,
                       std::size_t{1}, std::size_t{0}, i1, std::size_t{0},
                       i1);
      ++l0;
    }
    const bool tail = b.lo1 == 0 && ld < h && l0end > l0;
    if (tail) --l0end;  // lane (lo0 + ld, 0): left grid column
    std::size_t run = l0end > l0 ? l0end - l0 : 0;
    std::size_t base = (b.lo0 + l0) * s0 + (b.lo1 + ld - l0);
    while (run > 0) {
      const std::size_t chunk = std::min(run, simd::kMaxDiagLanes);
      std::uint64_t miss =
          simd::pqd2d_diag(data, rec, codes, base, s0, chunk, spec);
      while (miss != 0) {
        const auto j = static_cast<std::size_t>(std::countr_zero(miss));
        miss &= miss - 1;
        const std::size_t u = base + j * st;
        rec[u] = FpOps<T>::roundtrip(data[u], q.precision());
      }
      base += chunk * st;
      run -= chunk;
    }
    if (tail) {
      const std::size_t i0 = b.lo0 + ld;
      detail::pqd_step(data, rec, codes, padded, q, dims, kind, true, s0,
                       std::size_t{1}, i0, std::size_t{0}, std::size_t{0},
                       i0 * s0);
    }
  }
}

/// Decode-side counterpart of pqd_tile_simd: same lane geometry, code-0
/// lanes skipped (the caller pre-places their unpredictable values in rec).
template <typename T>
void reconstruct_tile_simd(const std::uint16_t* codes, T* rec,
                           const Padded<T>& padded, const LinearQuantizer& q,
                           const Dims& dims, PredictorKind kind,
                           const simd::QuantSpec& spec, std::size_t s0,
                           const TileBox& b) {
  const std::size_t h = b.hi0 - b.lo0, w = b.hi1 - b.lo1;
  for (std::size_t ld = 0; ld + 1 < h + w; ++ld) {
    std::size_t l0 = ld >= w ? ld - w + 1 : 0;
    std::size_t l0end = std::min(h, ld + 1);
    if (b.lo0 == 0 && l0 == 0) {
      const std::size_t i1 = b.lo1 + ld;
      if (codes[i1] != 0) {
        rec[i1] = detail::reconstruct_step(
            codes, rec, padded, q, dims, kind, true, s0, std::size_t{1},
            std::size_t{0}, i1, std::size_t{0}, i1);
      }
      ++l0;
    }
    const bool tail = b.lo1 == 0 && ld < h && l0end > l0;
    if (tail) --l0end;
    std::size_t run = l0end > l0 ? l0end - l0 : 0;
    std::size_t base = (b.lo0 + l0) * s0 + (b.lo1 + ld - l0);
    while (run > 0) {
      const std::size_t chunk = std::min(run, simd::kMaxDiagLanes);
      simd::reconstruct2d_diag(codes, rec, base, s0, chunk, spec);
      base += chunk * (s0 - 1);
      run -= chunk;
    }
    if (tail) {
      const std::size_t i0 = b.lo0 + ld;
      const std::size_t i = i0 * s0;
      if (codes[i] != 0) {
        rec[i] = detail::reconstruct_step(
            codes, rec, padded, q, dims, kind, true, s0, std::size_t{1}, i0,
            std::size_t{0}, std::size_t{0}, i);
      }
    }
  }
}

/// Tiled PQD: every tile runs pqd_tile_simd when the shape is
/// SIMD-eligible, the scalar pqd_step in tile-raster order otherwise.
template <typename T>
typename FpOps<T>::PqdType pqd_tiled(std::span<const T> data,
                                     const Dims& dims,
                                     const LinearQuantizer& q,
                                     PredictorKind kind, int nt) {
  const Shape shape = detail::shape_of(dims);
  typename FpOps<T>::PqdType out;
  out.codes.resize(data.size());
  out.reconstructed.resize(data.size());
  T* rec = out.reconstructed.data();
  std::uint16_t* codes = out.codes.data();
  const T* src = data.data();
  const Padded<T> padded{rec, shape.n0, shape.n1, shape.n2};
  const std::size_t s1 = shape.n2, s0 = shape.n1 * shape.n2;
  const bool one_layer = kind == PredictorKind::Lorenzo1Layer;
  const bool use_simd = simd_pqd_eligible(dims, kind);
  const simd::QuantSpec spec = quant_spec(q);
  detail::for_each_tile(shape, tile_of(dims), nt, [&](const TileBox& b) {
    if (use_simd) {
      pqd_tile_simd(src, rec, codes, padded, q, dims, kind, spec, s0, b);
      return;
    }
    for_box_points(b, shape, [&](std::size_t i0, std::size_t i1,
                                 std::size_t i2, std::size_t i) {
      detail::pqd_step(src, rec, codes, padded, q, dims, kind, one_layer, s0,
                       s1, i0, i1, i2, i);
    });
  });
  // Splice the unpredictable originals back into the exact raster-order
  // stream the container format requires; the code array already marks them.
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (codes[i] == 0) out.unpredictable.push_back(data[i]);
  }
  return out;
}

template <typename T>
std::vector<T> reconstruct_tiled(std::span<const std::uint16_t> codes,
                                 std::span<const T> unpredictable,
                                 const Dims& dims, const LinearQuantizer& q,
                                 PredictorKind kind, int nt) {
  const Shape shape = detail::shape_of(dims);
  std::vector<T> rec(codes.size());
  const Padded<T> padded{rec.data(), shape.n0, shape.n1, shape.n2};
  const std::size_t s1 = shape.n2, s0 = shape.n1 * shape.n2;
  const bool one_layer = kind == PredictorKind::Lorenzo1Layer;

  // The raster kernel consumes unpredictable values in raster order; here
  // their slots are known up front (code 0), so place them all before the
  // tile sweep — they depend on nothing, and neighbours read them from
  // rec[] like any other history.
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    if (codes[i] == 0) {
      WAVESZ_REQUIRE(zeros < unpredictable.size(),
                     "unpredictable stream exhausted");
      rec[i] = unpredictable[zeros++];
    }
  }
  WAVESZ_REQUIRE(zeros == unpredictable.size(),
                 "unpredictable stream has trailing values");

  const bool use_simd = simd_pqd_eligible(dims, kind);
  const simd::QuantSpec spec = quant_spec(q);
  detail::for_each_tile(shape, tile_of(dims), nt, [&](const TileBox& b) {
    if (use_simd) {
      reconstruct_tile_simd(codes.data(), rec.data(), padded, q, dims, kind,
                            spec, s0, b);
      return;
    }
    for_box_points(b, shape, [&](std::size_t i0, std::size_t i1,
                                 std::size_t i2, std::size_t i) {
      if (codes[i] == 0) return;  // placed above
      rec[i] = detail::reconstruct_step(codes.data(), rec.data(), padded, q,
                                        dims, kind, one_layer, s0, s1, i0,
                                        i1, i2, i);
    });
  });
  return rec;
}

// Default floor: matches range_of's per-thread minimum — at 2^18 points per
// worker a 512x512 field (2^18 points) stays serial, a 1024x1024 field gets
// up to 4 workers, which is where BENCH_pqd.json shows the wavefront barrier
// amortized.
std::atomic<std::size_t> g_min_points_per_thread{std::size_t{1} << 18};

/// Resolve a thread budget and cap it so every worker gets at least the
/// configured minimum number of points.
int worker_count(int threads, std::size_t count) {
  const int nt = resolve_thread_budget(threads);
  const std::size_t floor = wavefront_min_points_per_thread();
  if (floor == 0 || nt <= 1) return nt;
  const std::size_t cap = std::max<std::size_t>(1, count / floor);
  return static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(nt), cap));
}

bool runs_tiled(const Dims& dims, PredictorKind kind, int nt) {
  return dims.rank >= 2 && (nt > 1 || simd_pqd_eligible(dims, kind));
}

}  // namespace

std::size_t wavefront_min_points_per_thread() {
  return g_min_points_per_thread.load(std::memory_order_relaxed);
}

void set_wavefront_min_points_per_thread(std::size_t points) {
  g_min_points_per_thread.store(points, std::memory_order_relaxed);
}

int resolve_thread_budget(int budget) {
#ifdef _OPENMP
  if (budget <= 0) return omp_get_max_threads();
  return budget;
#else
  (void)budget;
  return 1;
#endif
}

namespace detail {

template <typename T>
typename FpOps<T>::PqdType run_pqd(std::span<const T> data, const Dims& dims,
                                   const LinearQuantizer& q,
                                   PredictorKind kind, int threads) {
  WAVESZ_REQUIRE(data.size() == dims.count(), "data size disagrees with dims");
  const int nt = worker_count(threads, dims.count());
  if (runs_tiled(dims, kind, nt)) {
    telemetry::Span span(telemetry::spans::kPqdWavefront);
    return pqd_tiled<T>(data, dims, q, kind, nt);
  }
  telemetry::Span span(telemetry::spans::kPqdRaster);
  return lorenzo_pqd_scalar_t<T>(data, dims, q, kind);
}

template <typename T>
std::vector<T> run_reconstruct(std::span<const std::uint16_t> codes,
                               std::span<const T> unpredictable,
                               const Dims& dims, const LinearQuantizer& q,
                               PredictorKind kind, int threads) {
  WAVESZ_REQUIRE(codes.size() == dims.count(),
                 "code count disagrees with dims");
  const int nt = worker_count(threads, dims.count());
  if (runs_tiled(dims, kind, nt)) {
    telemetry::Span span(telemetry::spans::kReconstructWavefront);
    return reconstruct_tiled<T>(codes, unpredictable, dims, q, kind, nt);
  }
  telemetry::Span span(telemetry::spans::kReconstructRaster);
  return lorenzo_reconstruct_scalar_t<T>(codes, unpredictable, dims, q, kind);
}

template Pqd run_pqd<float>(std::span<const float>, const Dims&,
                            const LinearQuantizer&, PredictorKind, int);
template Pqd64 run_pqd<double>(std::span<const double>, const Dims&,
                               const LinearQuantizer&, PredictorKind, int);
template std::vector<float> run_reconstruct<float>(
    std::span<const std::uint16_t>, std::span<const float>, const Dims&,
    const LinearQuantizer&, PredictorKind, int);
template std::vector<double> run_reconstruct<double>(
    std::span<const std::uint16_t>, std::span<const double>, const Dims&,
    const LinearQuantizer&, PredictorKind, int);

}  // namespace detail

}  // namespace wavesz::sz
