#include "workload.hpp"

#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>

#include "core/wavesz.hpp"
#include "metrics/stats.hpp"

namespace perfbench {
namespace sz = wavesz::sz;
namespace wave = wavesz::wave;
using wavesz::data::Persona;

namespace {

// Every workload is driven by one process with at most 4 threads.
constexpr std::array<Workload, 2> kWorkloads{{
    {"sz14-hurricane-t1", Persona::Hurricane, 2, Codec::Sz14, 1},
    {"wavesz-nyx-t4", Persona::Nyx, 4, Codec::Wave, 4},
}};

/// Seed 0 keeps the dataset registry's recipe seeds, so it defines the
/// workloads; any other seed gives every field a different instance of the
/// same recipe.
std::uint64_t mix_seed(std::uint64_t recipe_seed, std::uint64_t seed) {
  return recipe_seed ^ (seed * 0x9E3779B97F4A7C15ull);
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const auto& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string workload_names() {
  std::string out;
  for (const auto& w : kWorkloads) {
    if (!out.empty()) out += ", ";
    out += w.name;
  }
  return out;
}

sz::Config config(const Workload& w, int threads) {
  sz::Config cfg =
      w.codec == Codec::Wave ? wave::default_config() : sz::Config{};
  cfg.pqd_threads = threads;
  cfg.codec_threads = threads;
  cfg.decode_threads = threads;
  return cfg;
}

sz::Compressed compress(const Workload& w, const sz::Config& cfg,
                        std::span<const float> data,
                        const wavesz::Dims& dims) {
  return w.codec == Codec::Wave ? wave::compress(data, dims, cfg)
                                : sz::compress(data, dims, cfg);
}

std::vector<float> decompress(const Workload& w,
                              std::span<const std::uint8_t> bytes,
                              int threads) {
  const sz::DecodeOptions opts{threads, threads};
  return w.codec == Codec::Wave ? wave::decompress(bytes, opts)
                                : sz::decompress(bytes, opts);
}

std::unique_ptr<sz::StagedCompressor> make_staged(
    const Workload& w, const sz::Config& cfg, std::span<const float> data,
    const wavesz::Dims& dims) {
  return w.codec == Codec::Wave ? wave::make_staged(data, dims, cfg)
                                : sz::make_staged(data, dims, cfg);
}

std::string Gate::check_container(const FieldCase& f,
                                  std::vector<std::uint8_t>& bytes) const {
  if (inject_ == Inject::FlipByte && !bytes.empty()) {
    bytes[bytes.size() / 2] ^= 0x5a;
  }
  if (bytes != f.reference) {
    return "container differs from the budget-1 reference (" +
           std::to_string(bytes.size()) + " vs " +
           std::to_string(f.reference.size()) + " bytes)";
  }
  return {};
}

std::string Gate::check_decode(const FieldCase& f,
                               std::span<const float> out) const {
  if (out.size() != f.data.size()) {
    return "decoded " + std::to_string(out.size()) + " of " +
           std::to_string(f.data.size()) + " points";
  }
  const double bound = inject_ == Inject::TightBound ? f.bound * 1e-3
                                                     : f.bound;
  const std::size_t bad = wavesz::metrics::first_violation(f.data, out, bound);
  if (bad != SIZE_MAX) {
    char msg[160];
    std::snprintf(msg, sizeof msg,
                  "point %zu breaks the bound %.9g: %.9g vs %.9g", bad, bound,
                  static_cast<double>(f.data[bad]),
                  static_cast<double>(out[bad]));
    return msg;
  }
  if (std::memcmp(out.data(), f.reference_decode.data(), out.size_bytes()) !=
      0) {
    return "decode differs from the serial decode";
  }
  return {};
}

void Gate::record(std::string_view op, const FieldCase& f,
                  const std::string& error) {
  ++attempted_;
  if (error.empty()) return;
  ++failed_;
  std::printf("FAIL %.*s %s: %s\n", static_cast<int>(op.size()), op.data(),
              f.name.c_str(), error.c_str());
}

std::vector<std::uint8_t> timed_compress(const Workload& w,
                                         const sz::Config& cfg,
                                         const FieldCase& f, Gate& gate,
                                         std::vector<double>& ms) {
  std::string err;
  std::vector<std::uint8_t> bytes;
  const double t0 = now_s();
  try {
    bytes = compress(w, cfg, f.data, f.dims).bytes;
  } catch (const std::exception& e) {
    err = e.what();
  }
  ms.push_back(1e3 * (now_s() - t0));
  if (err.empty()) err = gate.check_container(f, bytes);
  gate.record("compress", f, err);
  return bytes;
}

void timed_decompress(const Workload& w, std::span<const std::uint8_t> bytes,
                      const FieldCase& f, Gate& gate, std::vector<double>& ms) {
  std::string err;
  std::vector<float> out;
  const double t0 = now_s();
  try {
    out = decompress(w, bytes, w.threads);
  } catch (const std::exception& e) {
    err = e.what();
  }
  ms.push_back(1e3 * (now_s() - t0));
  if (err.empty()) err = gate.check_decode(f, out);
  gate.record("decompress", f, err);
}

Fixture set_up(const Workload& w, std::uint64_t seed, Gate& gate) {
  Fixture fx;
  const sz::Config serial = config(w, 1);
  const sz::Config budget = config(w, w.threads);
  const double t0 = now_s();
  for (const auto& spec : wavesz::data::fields(w.persona, w.scale)) {
    FieldCase f;
    f.name = spec.name;
    f.dims = spec.dims;
    auto recipe = spec.recipe;
    recipe.seed = mix_seed(recipe.seed, seed);
    f.data = wavesz::data::generate(recipe, spec.dims);
    f.reference = compress(w, serial, f.data, f.dims).bytes;
    f.reference_decode = decompress(w, f.reference, 1);
    f.bound = sz::inspect(f.reference).eb_absolute;
    if (w.threads > 1) {
      std::vector<double> unused;
      const auto bytes = timed_compress(w, budget, f, gate, unused);
      if (!bytes.empty()) timed_decompress(w, bytes, f, gate, unused);
    }
    fx.fields.push_back(std::move(f));
  }
  fx.setup_s = now_s() - t0;
  for (auto& f : fx.fields) {
    f.psnr_db = wavesz::metrics::distortion(f.data, f.reference_decode).psnr_db;
  }
  fx.field_bytes = fx.fields.front().data.size() * sizeof(float);
  return fx;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 == 1) return *mid;
  return 0.5 * (*mid + *std::max_element(v.begin(), mid));
}

double mean_of_medians(const std::vector<std::vector<double>>& per_field) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& v : per_field) {
    if (v.empty()) continue;
    sum += median(v);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace perfbench
