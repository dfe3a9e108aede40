// The tiled anti-diagonal (wavefront) schedule — the paper's
// dependency-breaking insight (§3.2–3.3) applied to the CPU hot path — and
// the SZ-1.4 Lorenzo entry points that run on it.
//
// Points on the same anti-diagonal hyperplane h = i0 + i1 (+ i2) have no
// mutual Lorenzo dependency: every stencil tap has strictly smaller
// coordinates, hence lands on an earlier hyperplane. The same holds one
// level up for fixed-size tiles (a tile's taps reach only tiles with
// coordinate-wise smaller-or-equal indices, i.e. strictly earlier tile
// diagonals), so detail::for_each_tile sweeps *tile* diagonals — the paper's
// head/body/tail pipeline at memory-hierarchy granularity — and hands every
// tile of a diagonal to a different OpenMP thread. It is the one scheduler
// of every tiled kernel in the tree: the SZ-1.4 PQD/reconstruct kernels
// here and the waveSZ ones in core/wavesz.cpp.
//
// Each point's arithmetic is shared with the raster kernels via
// pqd_detail.hpp, so results are bit-identical to the serial reference; the
// unpredictable stream is spliced back into exact raster order afterwards
// (the container format's contract).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "sz/compressor.hpp"
#include "sz/config.hpp"
#include "sz/pqd_detail.hpp"
#include "sz/quantizer.hpp"
#include "telemetry/telemetry.hpp"
#include "util/dims.hpp"

namespace wavesz::sz {

/// Minimum points per worker before the SZ-1.4 kernels honour a parallel
/// thread budget: budgets are capped at count / floor, so fields too small
/// to amortize the per-diagonal barrier run on one thread (BENCH_pqd.json
/// showed 512x512 f32 *losing* 40% at 4 threads). 0 disables the floor
/// (tests/benches forcing the parallel path). Thread-safe.
std::size_t wavefront_min_points_per_thread();
void set_wavefront_min_points_per_thread(std::size_t points);

namespace detail {

/// Half-open index box [lo, hi) of one tile along each axis.
struct TileBox {
  std::size_t lo0, hi0, lo1, hi1, lo2, hi2;
};

/// Cut `grid` into tiles of extent `tile` (unit axes stay unit) and call
/// body(const TileBox&) once per tile, each tile only after every tile with
/// coordinate-wise smaller-or-equal indices has finished — the order a
/// backward-reaching stencil needs. Tile extents are performance knobs
/// only; any extent >= 1 is correct.
///
/// nt <= 1 runs on the calling thread in tile-raster order, with no OpenMP
/// team. nt > 1 starts a team of nt threads that sweeps tile diagonals
/// t0 + t1 + t2 = d; the omp-for barrier is the hyperplane boundary, and
/// the diagonal count is added to Counter::PqdDiagonalBatches. `body` must
/// not throw.
template <typename Body>
void for_each_tile(const Shape& grid, const Shape& tile, int nt,
                   Body&& body) {
  const std::size_t b0 = (grid.n0 + tile.n0 - 1) / tile.n0;
  const std::size_t b1 = (grid.n1 + tile.n1 - 1) / tile.n1;
  const std::size_t b2 = (grid.n2 + tile.n2 - 1) / tile.n2;
  const auto run = [&](std::size_t t0, std::size_t t1, std::size_t t2) {
    body(TileBox{t0 * tile.n0, std::min(grid.n0, (t0 + 1) * tile.n0),
                 t1 * tile.n1, std::min(grid.n1, (t1 + 1) * tile.n1),
                 t2 * tile.n2, std::min(grid.n2, (t2 + 1) * tile.n2)});
  };
  if (nt <= 1) {
    for (std::size_t t0 = 0; t0 < b0; ++t0) {
      for (std::size_t t1 = 0; t1 < b1; ++t1) {
        for (std::size_t t2 = 0; t2 < b2; ++t2) run(t0, t1, t2);
      }
    }
    return;
  }
  // Tiles bucketed by diagonal: all tiles of diagonal d may run
  // concurrently once diagonals < d are complete.
  struct Tile {
    std::uint32_t t0, t1, t2;
  };
  std::vector<std::vector<Tile>> diagonals(b0 + b1 + b2 - 2);
  for (std::size_t t0 = 0; t0 < b0; ++t0) {
    for (std::size_t t1 = 0; t1 < b1; ++t1) {
      for (std::size_t t2 = 0; t2 < b2; ++t2) {
        diagonals[t0 + t1 + t2].push_back(
            Tile{static_cast<std::uint32_t>(t0),
                 static_cast<std::uint32_t>(t1),
                 static_cast<std::uint32_t>(t2)});
      }
    }
  }
  telemetry::counter_add(telemetry::Counter::PqdDiagonalBatches,
                         diagonals.size());
#ifdef _OPENMP
#pragma omp parallel num_threads(nt)
#endif
  {
    for (const auto& diag : diagonals) {
#ifdef _OPENMP
#pragma omp for schedule(dynamic)
#endif
      for (std::size_t k = 0; k < diag.size(); ++k) {
        run(diag[k].t0, diag[k].t1, diag[k].t2);
      }
      // The omp-for barrier is the hyperplane boundary: diagonal d+1 only
      // starts once every tile of diagonal d is written.
    }
  }
}

/// The one Lorenzo PQD entry point behind lorenzo_pqd{,64} and the
/// compressor. `threads` has Config::pqd_threads semantics (0 = all OpenMP
/// threads, n = at most n), capped by the work floor above. Rank >= 2 runs
/// the tiled kernel on for_each_tile when that leaves more than one thread
/// or the shape has a SIMD schedule (1-layer rank 2 at a SIMD level above
/// scalar); everything else runs the raster kernel lorenzo_pqd_scalar_t.
/// Bit-identical output either way. Instantiated for float and double in
/// wavefront_pqd.cpp.
template <typename T>
typename FpOps<T>::PqdType run_pqd(std::span<const T> data, const Dims& dims,
                                   const LinearQuantizer& q,
                                   PredictorKind kind, int threads);

/// Reconstruction counterpart of run_pqd, same routing.
template <typename T>
std::vector<T> run_reconstruct(std::span<const std::uint16_t> codes,
                               std::span<const T> unpredictable,
                               const Dims& dims, const LinearQuantizer& q,
                               PredictorKind kind, int threads);

}  // namespace detail

}  // namespace wavesz::sz
