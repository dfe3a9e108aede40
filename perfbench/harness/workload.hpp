// Workloads, fixtures and the correctness gate of the repository benchmark.
// README.md in this directory says why each workload was chosen.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "data/datasets.hpp"
#include "sz/compressor.hpp"
#include "util/dims.hpp"

namespace perfbench {

enum class Codec { Sz14, Wave };

/// One workload: a dataset persona at a downscale, a codec, and the single
/// thread budget every knob of that codec is set to.
struct Workload {
  std::string_view name;
  wavesz::data::Persona persona;
  unsigned scale;
  Codec codec;
  int threads;
};

/// nullptr when no workload has that name.
const Workload* find_workload(std::string_view name);
std::string workload_names();

/// The workload's library configuration with every thread budget at
/// `threads` (pipeline_depth stays 0).
wavesz::sz::Config config(const Workload& w, int threads);

wavesz::sz::Compressed compress(const Workload& w,
                                const wavesz::sz::Config& cfg,
                                std::span<const float> data,
                                const wavesz::Dims& dims);
std::vector<float> decompress(const Workload& w,
                              std::span<const std::uint8_t> bytes,
                              int threads);
std::unique_ptr<wavesz::sz::StagedCompressor> make_staged(
    const Workload& w, const wavesz::sz::Config& cfg,
    std::span<const float> data, const wavesz::Dims& dims);

/// One input field with the references every timed call is checked against.
struct FieldCase {
  std::string name;
  wavesz::Dims dims;
  std::vector<float> data;
  std::vector<std::uint8_t> reference;  ///< compress() at budget 1
  std::vector<float> reference_decode;  ///< decompress() of it at budget 1
  double bound = 0.0;                   ///< the container's absolute bound
  double psnr_db = 0.0;
};

/// Fault injected into the gate by the benchmark's own tests.
enum class Inject { None, FlipByte, TightBound };

/// The correctness gate applied to every timed call, outside its timing.
/// Each compress or decompress is one operation; an operation fails when it
/// throws or breaks the bound or byte identity, and each failure is printed.
class Gate {
 public:
  explicit Gate(Inject inject) : inject_(inject) {}

  /// Empty when `bytes` equals the field's budget-1 reference container.
  /// Under Inject::FlipByte a byte of `bytes` is flipped first.
  std::string check_container(const FieldCase& f,
                              std::vector<std::uint8_t>& bytes) const;
  /// Empty when `out` meets the container's bound on every point and equals
  /// the serial decode of the reference bit for bit.
  std::string check_decode(const FieldCase& f,
                           std::span<const float> out) const;

  /// Count one operation; `error` empty means it passed.
  void record(std::string_view op, const FieldCase& f,
              const std::string& error);

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

 private:
  Inject inject_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// compress() of one field, timed into `ms` and gated; returns the
/// container, empty when compress() threw.
std::vector<std::uint8_t> timed_compress(const Workload& w,
                                         const wavesz::sz::Config& cfg,
                                         const FieldCase& f, Gate& gate,
                                         std::vector<double>& ms);
/// decompress() of `bytes` at the workload budget, timed into `ms` and gated.
void timed_decompress(const Workload& w, std::span<const std::uint8_t> bytes,
                      const FieldCase& f, Gate& gate, std::vector<double>& ms);

struct Fixture {
  std::vector<FieldCase> fields;
  double setup_s = 0.0;         ///< wall time of set_up()
  std::size_t field_bytes = 0;  ///< input bytes of one field
};

/// Generate the workload's fields with `seed` mixed into every recipe seed,
/// then compress and decompress each once at budget 1 (the references) and,
/// above budget 1, once more at the workload budget (the warm-up).
Fixture set_up(const Workload& w, std::uint64_t seed, Gate& gate);

/// Median of `v`; 0 when empty.
double median(std::vector<double> v);
/// Mean over fields of each field's median. The fields of one workload
/// differ in cost, so a median over all calls would sit between their
/// clusters; medians are taken per field before they are combined.
double mean_of_medians(const std::vector<std::vector<double>>& per_field);

/// Steady-clock seconds since an arbitrary epoch, and process CPU seconds.
double now_s();
double cpu_s();

}  // namespace perfbench
