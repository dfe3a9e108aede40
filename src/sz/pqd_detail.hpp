// Internal building blocks of the SZ-1.4 Lorenzo PQD kernels, shared by the
// raster-order kernel below (the budget-1 path for shapes without a SIMD
// schedule, and the test oracle) and the tiled anti-diagonal kernel
// (wavefront_pqd.cpp).
//
// The two schedules must produce bit-identical results — the tiled kernel
// only changes the visit order, never a point's arithmetic — so everything a
// point computes (prediction path selection, stencil term order, quantizer
// entry, history writeback) lives here exactly once and both kernels inline
// the same code.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sz/compressor.hpp"
#include "sz/config.hpp"
#include "sz/predictor.hpp"
#include "sz/quantizer.hpp"
#include "sz/unpredictable.hpp"
#include "util/dims.hpp"
#include "util/error.hpp"

namespace wavesz::sz::detail {

/// Zero-padded accessor over the reconstructed field: any index off the grid
/// reads as 0.0, which collapses the Lorenzo stencil to its reduced-dimension
/// form on borders.
template <typename T>
struct Padded {
  const T* rec;
  std::size_t d0, d1, d2;

  double at(std::ptrdiff_t i0, std::ptrdiff_t i1, std::ptrdiff_t i2) const {
    if (i0 < 0 || i1 < 0 || i2 < 0) return 0.0;
    return rec[(static_cast<std::size_t>(i0) * d1 +
                static_cast<std::size_t>(i1)) *
                   d2 +
               static_cast<std::size_t>(i2)];
  }
};

template <typename T>
double predict(const Padded<T>& p, int rank, PredictorKind kind,
               std::ptrdiff_t i0, std::ptrdiff_t i1, std::ptrdiff_t i2) {
  if (kind == PredictorKind::Lorenzo2Layer) {
    // Supported for 1D/2D (the 3D 2-layer stencil has 26 taps and is not
    // part of this reproduction); enforced at compress() time.
    if (rank == 1) {
      return lorenzo1d_2layer(p.at(i0 - 1, 0, 0), p.at(i0 - 2, 0, 0));
    }
    return lorenzo2d_2layer(p.at(i0, i1 - 1, 0), p.at(i0, i1 - 2, 0),
                            p.at(i0 - 1, i1, 0), p.at(i0 - 1, i1 - 1, 0),
                            p.at(i0 - 1, i1 - 2, 0), p.at(i0 - 2, i1, 0),
                            p.at(i0 - 2, i1 - 1, 0), p.at(i0 - 2, i1 - 2, 0));
  }
  switch (rank) {
    case 1:
      return lorenzo1d(p.at(i0 - 1, 0, 0));
    case 2:
      return lorenzo2d(p.at(i0 - 1, i1 - 1, 0), p.at(i0 - 1, i1, 0),
                       p.at(i0, i1 - 1, 0));
    default:
      return lorenzo3d(p.at(i0 - 1, i1 - 1, i2 - 1), p.at(i0 - 1, i1 - 1, i2),
                       p.at(i0 - 1, i1, i2 - 1), p.at(i0, i1 - 1, i2 - 1),
                       p.at(i0 - 1, i1, i2), p.at(i0, i1 - 1, i2),
                       p.at(i0, i1, i2 - 1));
  }
}

struct Shape {
  std::size_t n0, n1, n2;
};

inline Shape shape_of(const Dims& dims) {
  return {dims[0], dims.rank >= 2 ? dims[1] : 1,
          dims.rank >= 3 ? dims[2] : 1};
}

/// Branch-free Lorenzo prediction for interior points (every coordinate
/// > 0): direct strided loads, term order identical to lorenzo{1,2,3}d so
/// the result is bit-equal to the generic Padded path.
template <typename T>
double predict_interior(const T* rec, int rank, std::size_t s0,
                        std::size_t s1, std::size_t i) {
  switch (rank) {
    case 1:
      return static_cast<double>(rec[i - 1]);
    case 2:
      // Row stride of a rank-2 grid is s0 (= n1, since n2 == 1).
      return static_cast<double>(rec[i - s0]) +
             static_cast<double>(rec[i - 1]) -
             static_cast<double>(rec[i - s0 - 1]);
    default:
      return static_cast<double>(rec[i - s0]) +
             static_cast<double>(rec[i - s1]) +
             static_cast<double>(rec[i - 1]) -
             static_cast<double>(rec[i - s0 - s1]) -
             static_cast<double>(rec[i - s0 - 1]) -
             static_cast<double>(rec[i - s1 - 1]) +
             static_cast<double>(rec[i - s0 - s1 - 1]);
  }
}

/// Width-generic glue: the quantizer/truncation entry points differ between
/// float32 and float64 but the PQD structure does not.
template <typename T>
struct FpOps;

template <>
struct FpOps<float> {
  using PqdType = Pqd;
  static constexpr std::uint8_t kDtype = 0;
  static auto quantize(const LinearQuantizer& q, double pred, float orig) {
    return q.quantize(pred, orig);
  }
  static float reconstruct(const LinearQuantizer& q, double pred,
                           std::uint16_t code) {
    return q.reconstruct(pred, code);
  }
  static float roundtrip(float v, double bound) {
    return truncation_roundtrip(v, bound);
  }
  static std::vector<std::uint8_t> encode(std::span<const float> v,
                                          double bound) {
    return truncation_encode(v, bound);
  }
  static std::vector<float> decode(std::span<const std::uint8_t> blob,
                                   std::size_t count, double bound) {
    return truncation_decode(blob, count, bound);
  }
};

template <>
struct FpOps<double> {
  using PqdType = Pqd64;
  static constexpr std::uint8_t kDtype = 1;
  static auto quantize(const LinearQuantizer& q, double pred, double orig) {
    return q.quantize64(pred, orig);
  }
  static double reconstruct(const LinearQuantizer& q, double pred,
                            std::uint16_t code) {
    return q.reconstruct64(pred, code);
  }
  static double roundtrip(double v, double bound) {
    return truncation_roundtrip64(v, bound);
  }
  static std::vector<std::uint8_t> encode(std::span<const double> v,
                                          double bound) {
    return truncation_encode64(v, bound);
  }
  static std::vector<double> decode(std::span<const std::uint8_t> blob,
                                    std::size_t count, double bound) {
    return truncation_decode64(blob, count, bound);
  }
};

/// One compress-side PQD step at point (i0, i1, i2) / raster index i:
/// predict, quantize, write the code and the decompressor-visible history.
/// Returns false when the point is unpredictable (code 0) — the caller owns
/// collecting data[i] into the raster-order unpredictable stream.
template <typename T>
inline bool pqd_step(const T* data, T* rec, std::uint16_t* codes,
                     const Padded<T>& padded, const LinearQuantizer& q,
                     const Dims& dims, PredictorKind kind, bool one_layer,
                     std::size_t s0, std::size_t s1, std::size_t i0,
                     std::size_t i1, std::size_t i2, std::size_t i) {
  const bool interior = one_layer && i0 > 0 && (dims.rank < 2 || i1 > 0) &&
                        (dims.rank < 3 || i2 > 0);
  const double pred =
      interior ? predict_interior(rec, dims.rank, s0, s1, i)
               : predict(padded, dims.rank, kind,
                         static_cast<std::ptrdiff_t>(i0),
                         static_cast<std::ptrdiff_t>(i1),
                         static_cast<std::ptrdiff_t>(i2));
  const auto r = FpOps<T>::quantize(q, pred, data[i]);
  codes[i] = r.code;
  if (r.code != 0) {
    rec[i] = r.reconstructed;
    return true;
  }
  // History must hold what the decompressor will see: the truncation-decoded
  // value, not the original.
  rec[i] = FpOps<T>::roundtrip(data[i], q.precision());
  return false;
}

/// One decompress-side step for a quantized point (codes[i] != 0).
template <typename T>
inline T reconstruct_step(const std::uint16_t* codes, const T* rec,
                          const Padded<T>& padded, const LinearQuantizer& q,
                          const Dims& dims, PredictorKind kind,
                          bool one_layer, std::size_t s0, std::size_t s1,
                          std::size_t i0, std::size_t i1, std::size_t i2,
                          std::size_t i) {
  const bool interior = one_layer && i0 > 0 && (dims.rank < 2 || i1 > 0) &&
                        (dims.rank < 3 || i2 > 0);
  const double pred =
      interior ? predict_interior(rec, dims.rank, s0, s1, i)
               : predict(padded, dims.rank, kind,
                         static_cast<std::ptrdiff_t>(i0),
                         static_cast<std::ptrdiff_t>(i1),
                         static_cast<std::ptrdiff_t>(i2));
  return FpOps<T>::reconstruct(q, pred, codes[i]);
}

/// Raster-order PQD: the serial kernel for shapes the tiled kernel does not
/// take at budget 1, and the oracle every other schedule is tested against.
template <typename T>
typename FpOps<T>::PqdType lorenzo_pqd_scalar_t(
    std::span<const T> data, const Dims& dims, const LinearQuantizer& q,
    PredictorKind kind = PredictorKind::Lorenzo1Layer) {
  WAVESZ_REQUIRE(data.size() == dims.count(), "data size disagrees with dims");
  const auto [n0, n1, n2] = shape_of(dims);
  typename FpOps<T>::PqdType out;
  out.codes.resize(data.size());
  out.reconstructed.resize(data.size());
  T* rec = out.reconstructed.data();
  const Padded<T> padded{rec, n0, n1, n2};
  const std::size_t s1 = n2, s0 = n1 * n2;
  const bool one_layer = kind == PredictorKind::Lorenzo1Layer;
  std::size_t i = 0;
  for (std::size_t i0 = 0; i0 < n0; ++i0) {
    for (std::size_t i1 = 0; i1 < n1; ++i1) {
      for (std::size_t i2 = 0; i2 < n2; ++i2, ++i) {
        if (!pqd_step(data.data(), rec, out.codes.data(), padded, q, dims,
                      kind, one_layer, s0, s1, i0, i1, i2, i)) {
          out.unpredictable.push_back(data[i]);
        }
      }
    }
  }
  return out;
}

/// Raster-order reconstruction, the counterpart of lorenzo_pqd_scalar_t.
template <typename T>
std::vector<T> lorenzo_reconstruct_scalar_t(
    std::span<const std::uint16_t> codes, std::span<const T> unpredictable,
    const Dims& dims, const LinearQuantizer& q,
    PredictorKind kind = PredictorKind::Lorenzo1Layer) {
  WAVESZ_REQUIRE(codes.size() == dims.count(),
                 "code count disagrees with dims");
  const auto [n0, n1, n2] = shape_of(dims);
  std::vector<T> rec(codes.size());
  const Padded<T> padded{rec.data(), n0, n1, n2};
  const std::size_t s1 = n2, s0 = n1 * n2;
  const bool one_layer = kind == PredictorKind::Lorenzo1Layer;
  std::size_t next_unpred = 0;
  std::size_t i = 0;
  for (std::size_t i0 = 0; i0 < n0; ++i0) {
    for (std::size_t i1 = 0; i1 < n1; ++i1) {
      for (std::size_t i2 = 0; i2 < n2; ++i2, ++i) {
        if (codes[i] == 0) {
          WAVESZ_REQUIRE(next_unpred < unpredictable.size(),
                         "unpredictable stream exhausted");
          rec[i] = unpredictable[next_unpred++];
        } else {
          rec[i] = reconstruct_step(codes.data(), rec.data(), padded, q,
                                    dims, kind, one_layer, s0, s1, i0, i1,
                                    i2, i);
        }
      }
    }
  }
  WAVESZ_REQUIRE(next_unpred == unpredictable.size(),
                 "unpredictable stream has trailing values");
  return rec;
}

}  // namespace wavesz::sz::detail
