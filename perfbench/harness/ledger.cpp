#include "ledger.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <stdexcept>

#include "core/wavefront.hpp"
#include "core/wavesz.hpp"
#include "deflate/deflate.hpp"
#include "deflate/parallel.hpp"
#include "sz/container.hpp"
#include "sz/huffman_codec.hpp"
#include "sz/unpredictable.hpp"
#include "util/bytes.hpp"

namespace perfbench {
namespace {

namespace sz = wavesz::sz;
namespace wave = wavesz::wave;
namespace deflate = wavesz::deflate;

// sz.value_range runs inside the PQD phase; it is timed on its own as that
// phase's child and left out of the stage sums.
constexpr const char* kValueRange = "sz.value_range";
constexpr std::array<const char*, 7> kCompressStages{
    "sz.pqd",        "core.pqd",       "sz.encode.codes", "sz.encode.unpred",
    "deflate.codes", "deflate.unpred", "sz.assemble"};
constexpr std::array<const char*, 7> kDecodeStages{
    "sz.parse",       "deflate.inflate",  "sz.huffman_decode", "sz.code_unpack",
    "sz.unpred_decode", "sz.reconstruct", "core.reconstruct"};
// Whole SZx calls, timed apart from both directions' stage sums.
constexpr std::array<const char*, 2> kSzxStages{"sz.szx_encode",
                                                 "sz.szx_decode"};
// The stages waveSZ runs; its budget-1 repeat reports their speed-up.
constexpr std::array<const char*, 12> kWaveStages{
    kValueRange,      "core.pqd",        "sz.encode.codes", "sz.encode.unpred",
    "deflate.codes",  "deflate.unpred",  "sz.assemble",     "sz.parse",
    "deflate.inflate", "sz.code_unpack", "sz.unpred_decode",
    "core.reconstruct"};
constexpr const char* kEncodeStage[] = {"sz.encode.codes", "sz.encode.unpred"};
constexpr const char* kDeflateStage[] = {"deflate.codes", "deflate.unpred"};

// Rounds over all fields that even a short run makes, so every per-field
// median has a few samples.
constexpr int kMinRounds = 5;
constexpr int kMinSerialRounds = 2;
constexpr double kCoverageTolerance = 0.05;
// A coverage median decides the 5% check only once its standard error is at
// most 1%. A budget-4 call on a shared 4-vCPU host varies by ~10% from call
// to call, so a traced run at budget 4 needs ~130 pairs, more than its time
// share gives; its main loop goes on for up to this multiple of that share.
constexpr double kMaxCoverageSe = 0.01;
constexpr double kMaxMainStretch = 2.5;

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Standard error of the median of `v` under a normal approximation, with
/// the spread taken from the median absolute deviation so that a few calls
/// caught by a burst do not inflate it: 1.2533 * 1.4826 * MAD / sqrt(n).
double median_se(const std::vector<double>& v) {
  if (v.size() < 2) return HUGE_VAL;
  const double m = median(v);
  std::vector<double> dev;
  for (double x : v) dev.push_back(std::fabs(x - m));
  return 1.2533 * 1.4826 * median(dev) /
         std::sqrt(static_cast<double>(v.size()));
}

/// Stage timings and byte counts, kept per field.
class Ledger {
 public:
  explicit Ledger(std::size_t fields) : fields_(fields) {}

  /// Runs `fn` as one call of `stage` on field f; returns its wall ms.
  template <typename Fn>
  double time(const char* stage, std::size_t f, Fn&& fn) {
    Row& r = row(stage);
    // The wall interval encloses the CPU one, so util stays within the
    // budget even for stages as short as the clock reads.
    const double t0 = now_s();
    const double c0 = cpu_s();
    fn();
    const double c1 = cpu_s();
    const double t1 = now_s();
    r.wall_ms[f].push_back(1e3 * (t1 - t0));
    r.cpu_ms[f].push_back(1e3 * (c1 - c0));
    return r.wall_ms[f].back();
  }

  void bytes(const char* stage, std::size_t f, double in, double out) {
    Row& r = row(stage);
    r.bytes_in[f] = in;
    r.bytes_out[f] = out;
  }

  double ms(const char* stage) const {
    const Row* r = find(stage);
    return r == nullptr ? 0.0 : mean_of_medians(r->wall_ms);
  }
  /// Process CPU time over (wall time x budget).
  double util(const char* stage, int budget) const {
    const Row* r = find(stage);
    const double wall = r == nullptr ? 0.0 : mean_of_medians(r->wall_ms);
    return wall > 0.0 ? mean_of_medians(r->cpu_ms) / (wall * budget) : 0.0;
  }
  double bytes_in(const char* stage) const {
    const Row* r = find(stage);
    return r == nullptr ? 0.0 : mean(r->bytes_in);
  }
  double bytes_out(const char* stage) const {
    const Row* r = find(stage);
    return r == nullptr ? 0.0 : mean(r->bytes_out);
  }

 private:
  struct Row {
    std::vector<std::vector<double>> wall_ms, cpu_ms;
    std::vector<double> bytes_in, bytes_out;
  };

  Row& row(const char* stage) {
    auto [it, inserted] = rows_.try_emplace(stage);
    if (inserted) {
      it->second.wall_ms.resize(fields_);
      it->second.cpu_ms.resize(fields_);
      it->second.bytes_in.resize(fields_);
      it->second.bytes_out.resize(fields_);
    }
    return it->second;
  }
  const Row* find(const char* stage) const {
    const auto it = rows_.find(stage);
    return it == rows_.end() ? nullptr : &it->second;
  }

  std::size_t fields_;
  std::map<std::string, Row> rows_;
};

/// Per-field sizes of the reference container's sections, for the byte
/// counts of every stage. Computed once, outside every timing.
struct Sizes {
  double points = 0, unpred = 0, container = 0;
  double code_blob = 0, unpred_blob = 0, code_plain = 0, unpred_plain = 0;
  bool huffman = false;
};

Sizes sizes_of(const FieldCase& fc) {
  const auto h = sz::inspect(fc.reference);
  Sizes s;
  s.points = static_cast<double>(h.point_count);
  s.unpred = static_cast<double>(h.unpredictable_count);
  s.container = static_cast<double>(fc.reference.size());
  s.huffman = h.huffman;
  wavesz::ByteReader r(fc.reference);
  sz::read_code_index(r, sz::read_header(r));
  const auto code_blob = sz::read_section(r);
  const auto unpred_blob = sz::read_section(r);
  s.code_blob = static_cast<double>(code_blob.size());
  s.unpred_blob = static_cast<double>(unpred_blob.size());
  s.code_plain =
      static_cast<double>(deflate::gzip_decompress(code_blob).size());
  s.unpred_plain =
      static_cast<double>(deflate::gzip_decompress(unpred_blob).size());
  return s;
}

void set_bytes(const Workload& w, const Sizes& s, std::size_t f, Ledger& L) {
  const double field = 4 * s.points;
  const double quantized = 2 * s.points + 4 * s.unpred;
  L.bytes(kValueRange, f, field, sizeof(double));
  const double blobs = s.code_blob + s.unpred_blob;
  const bool wavesz = w.codec == Codec::Wave;
  L.bytes(wavesz ? "core.pqd" : "sz.pqd", f, field, quantized);
  L.bytes("sz.encode.codes", f, 2 * s.points, s.code_plain);
  L.bytes("sz.encode.unpred", f, 4 * s.unpred, s.unpred_plain);
  L.bytes("deflate.codes", f, s.code_plain, s.code_blob);
  L.bytes("deflate.unpred", f, s.unpred_plain, s.unpred_blob);
  L.bytes("sz.assemble", f, blobs, s.container);
  L.bytes("sz.parse", f, s.container, blobs);
  L.bytes("deflate.inflate", f, blobs, s.code_plain + s.unpred_plain);
  L.bytes(s.huffman ? "sz.huffman_decode" : "sz.code_unpack", f, s.code_plain,
          2 * s.points);
  L.bytes("sz.unpred_decode", f, s.unpred_plain, 4 * s.unpred);
  L.bytes(wavesz ? "core.reconstruct" : "sz.reconstruct", f, quantized, field);
}

/// Wall time of one traced call, and the sum of its stage rows.
struct Timing {
  double wall_ms = 0.0;
  double stages_ms = 0.0;
};

/// compress() split into the public StagedCompressor phases, each timed.
/// The value-range child runs after the sequence, outside `t`.
std::vector<std::uint8_t> traced_compress(const Workload& w,
                                          const sz::Config& cfg,
                                          const FieldCase& fc, std::size_t f,
                                          Ledger& L, Timing& t) {
  const double t0 = now_s();
  auto job = make_staged(w, cfg, fc.data, fc.dims);
  t.stages_ms = L.time(w.codec == Codec::Wave ? "core.pqd" : "sz.pqd", f,
                       [&] { job->pqd(); });
  for (std::size_t s = 0; s < job->sections(); ++s) {
    t.stages_ms += L.time(kEncodeStage[s], f, [&] { job->encode_section(s); });
  }
  for (std::size_t s = 0; s < job->sections(); ++s) {
    t.stages_ms +=
        L.time(kDeflateStage[s], f, [&] { job->deflate_section(s); });
  }
  sz::Compressed out;
  t.stages_ms += L.time("sz.assemble", f, [&] { out = job->assemble(); });
  t.wall_ms = 1e3 * (now_s() - t0);
  L.time(kValueRange, f, [&] { sz::value_range(fc.data, cfg.pqd_threads); });
  return std::move(out.bytes);
}

/// decompress() rebuilt from public calls at the same thread budget, each
/// stage timed.
std::vector<float> traced_decompress(const Workload& w,
                                     std::span<const std::uint8_t> bytes,
                                     int threads, std::size_t f, Ledger& L,
                                     Timing& t) {
  const double t0 = now_s();
  std::vector<float> out;
  sz::ContainerHeader h;
  sz::CodeChunkIndex idx;
  std::vector<std::uint8_t> code_blob, unpred_blob;
  t.stages_ms = L.time("sz.parse", f, [&] {
    wavesz::ByteReader r(bytes);
    h = sz::read_header(r);
    idx = sz::read_code_index(r, h);
    code_blob = sz::read_section(r);
    unpred_blob = sz::read_section(r);
  });
  // As in the library: the decode pool needs the chunk index.
  const int nt = idx.present() ? sz::resolve_thread_budget(threads) : 1;
  std::vector<std::uint8_t> code_plain, unpred_plain;
  t.stages_ms += L.time("deflate.inflate", f, [&] {
    if (nt > 1) {
      const std::span<const std::uint8_t> sections[] = {code_blob,
                                                        unpred_blob};
      auto plains = deflate::gzip_decompress_batch(sections, nt);
      code_plain = std::move(plains[0]);
      unpred_plain = std::move(plains[1]);
    } else {
      code_plain = deflate::gzip_decompress(code_blob);
      unpred_plain = deflate::gzip_decompress(unpred_blob);
    }
  });
  std::vector<std::uint16_t> codes;
  if (h.huffman) {
    t.stages_ms += L.time("sz.huffman_decode", f, [&] {
      codes = idx.present() ? sz::huffman_decode_indexed(code_plain, idx, nt)
                            : sz::huffman_decode(code_plain);
    });
  } else {
    t.stages_ms += L.time("sz.code_unpack", f, [&] {
      wavesz::ByteReader cr(code_plain);
      codes = cr.u16s(h.point_count);
      if (idx.present()) sz::verify_code_index_crcs(codes, idx, codes.size());
    });
  }
  const sz::LinearQuantizer q(h.eb_absolute, h.quant_bits);
  std::vector<float> unpred;
  if (w.codec == Codec::Sz14) {
    // The public Lorenzo reconstruction is the serial raster kernel, which
    // is what decompress() runs at budget 1 only.
    if (sz::resolve_thread_budget(threads) > 1) {
      throw std::invalid_argument("the SZ-1.4 ledger covers budget 1 only");
    }
    t.stages_ms += L.time("sz.unpred_decode", f, [&] {
      unpred = sz::truncation_decode(unpred_plain, h.unpredictable_count,
                                     h.eb_absolute);
    });
    t.stages_ms += L.time("sz.reconstruct", f, [&] {
      out = sz::lorenzo_reconstruct(codes, unpred, h.dims, q,
                                    static_cast<sz::PredictorKind>(h.aux));
    });
  } else {
    t.stages_ms += L.time("sz.unpred_decode", f, [&] {
      wavesz::ByteReader ur(unpred_plain);
      unpred = ur.floats(h.unpredictable_count);
    });
    t.stages_ms += L.time("core.reconstruct", f, [&] {
      const wavesz::Dims flat = h.dims.flatten2d();
      const wave::WavefrontLayout layout(flat[0], flat[1]);
      std::size_t next = 0;
      const auto rec = wave::wave_reconstruct_2d(
          codes, unpred, &next, layout, q,
          std::max(sz::resolve_thread_budget(threads), nt));
      out = wave::from_wavefront(std::span<const float>(rec), layout);
    });
  }
  t.wall_ms = 1e3 * (now_s() - t0);
  return out;
}

// Rounds of SZx calls per field; with ~30 ms per compress and decompress
// pair on a Hurricane field this adds about 3 s to the traced run.
constexpr int kSzxRounds = 15;

/// SZx (sz::Config::ultrafast(), budget 1) on the workload's own fields,
/// timed as whole calls: sz.szx_encode is sz::compress and sz.szx_decode is
/// sz::decompress. No workload runs SZx end to end (README.md says why), so
/// the budget-1 SZ-1.4 workload's traced run keeps the layer measured. Every
/// call passes the gate: its container must equal the field's first SZx
/// container, and its decode must meet that container's bound and equal the
/// first decode bit for bit. Returns false when a call fails.
bool szx_rows(const Fixture& fx, Gate& gate, Ledger& L) {
  const sz::Config cfg = sz::Config::ultrafast();
  const sz::DecodeOptions serial{1, 1};
  bool ok = true;
  for (std::size_t f = 0; f < fx.fields.size(); ++f) {
    // The references, built outside every timing.
    FieldCase fc;
    fc.name = fx.fields[f].name + " (SZx)";
    fc.dims = fx.fields[f].dims;
    fc.data = fx.fields[f].data;
    fc.reference = sz::compress(fc.data, fc.dims, cfg).bytes;
    fc.reference_decode = sz::decompress(fc.reference, serial);
    fc.bound = sz::inspect(fc.reference).eb_absolute;
    const auto field = static_cast<double>(fc.data.size() * sizeof(float));
    const auto container = static_cast<double>(fc.reference.size());
    L.bytes("sz.szx_encode", f, field, container);
    L.bytes("sz.szx_decode", f, container, field);
    for (int round = 0; round < kSzxRounds; ++round) {
      std::string err;
      try {
        std::vector<std::uint8_t> bytes;
        L.time("sz.szx_encode", f,
               [&] { bytes = sz::compress(fc.data, fc.dims, cfg).bytes; });
        err = gate.check_container(fc, bytes);
      } catch (const std::exception& e) {
        err = e.what();
      }
      gate.record("SZx compress", fc, err);
      ok = ok && err.empty();
      err.clear();
      try {
        std::vector<float> out;
        L.time("sz.szx_decode", f,
               [&] { out = sz::decompress(fc.reference, serial); });
        err = gate.check_decode(fc, out);
      } catch (const std::exception& e) {
        err = e.what();
      }
      gate.record("SZx decompress", fc, err);
      ok = ok && err.empty();
    }
  }
  return ok;
}

}  // namespace

bool traced_run(const Workload& w, const Fixture& fx, Gate& gate,
                double seconds, double deadline_s, std::vector<Metric>& out) {
  const std::size_t nf = fx.fields.size();
  Ledger traced(nf), serial(nf);
  std::vector<Sizes> sizes;
  for (std::size_t f = 0; f < nf; ++f) {
    sizes.push_back(sizes_of(fx.fields[f]));
    set_bytes(w, sizes.back(), f, traced);
  }
  bool ok = true;

  // One traced compress and decompress of field f into `L`; the staged
  // bytes must equal compress() (the reference) and the rebuilt decode
  // must equal decompress() (the reference decode), bit for bit. A timing
  // stays zero when its call failed.
  auto traced_pair = [&](const sz::Config& cfg, int threads, std::size_t f,
                         std::span<const std::uint8_t> bytes, Ledger& L,
                         Timing& c, Timing& d) {
    const FieldCase& fc = fx.fields[f];
    std::string err;
    try {
      Timing t;
      auto staged = traced_compress(w, cfg, fc, f, L, t);
      err = gate.check_container(fc, staged);
      if (err.empty()) c = t;
    } catch (const std::exception& e) {
      err = e.what();
    }
    gate.record("staged compress", fc, err);
    ok = ok && err.empty();
    err.clear();
    try {
      Timing t;
      const auto rebuilt = traced_decompress(w, bytes, threads, f, L, t);
      err = gate.check_decode(fc, rebuilt);
      if (err.empty()) d = t;
    } catch (const std::exception& e) {
      err = e.what();
    }
    gate.record("rebuilt decompress", fc, err);
    ok = ok && err.empty();
  };

  // Each traced call is compared with the untraced call of the same field
  // and round, which runs within a second of it: contention from outside
  // the process then moves both alike, and the median over these pairs is
  // steadier than a ratio of two separately taken medians.
  std::vector<double> cov_c, cov_d, overhead;
  const sz::Config cfg = config(w, w.threads);
  const double start = now_s();
  const double main_s = w.threads > 1 ? 0.75 * seconds : seconds;
  auto more = [&](int round) {
    const double elapsed = now_s() - start;
    const bool precise = median_se(cov_c) <= kMaxCoverageSe &&
                         median_se(cov_d) <= kMaxCoverageSe;
    return round < kMinRounds || elapsed < main_s ||
           (!precise && elapsed < kMaxMainStretch * main_s);
  };
  for (int round = 0; more(round) && now_s() < deadline_s; ++round) {
    for (std::size_t f = 0; f < nf; ++f) {
      const FieldCase& fc = fx.fields[f];
      std::vector<std::uint8_t> bytes;
      std::vector<double> uc, ud;
      Timing tc, td;
      auto untraced = [&] {
        bytes = timed_compress(w, cfg, fc, gate, uc);
        if (!bytes.empty()) timed_decompress(w, bytes, fc, gate, ud);
      };
      // Alternate which side runs first, so drift hits both alike.
      if (round % 2 == 0) {
        untraced();
        traced_pair(cfg, w.threads, f, bytes, traced, tc, td);
      } else {
        traced_pair(cfg, w.threads, f, fc.reference, traced, tc, td);
        untraced();
      }
      if (ud.empty() || tc.wall_ms == 0.0 || td.wall_ms == 0.0) continue;
      cov_c.push_back(tc.stages_ms / uc[0]);
      cov_d.push_back(td.stages_ms / ud[0]);
      overhead.push_back((tc.wall_ms + td.wall_ms) / (uc[0] + ud[0]) - 1.0);
    }
  }

  std::printf("coverage over %zu pairs, standard error %.4f (compress) "
              "%.4f (decompress)\n",
              cov_c.size(), median_se(cov_c), median_se(cov_d));

  if (w.threads > 1) {
    const sz::Config cfg1 = config(w, 1);
    const double serial_start = now_s();
    for (int round = 0; (round < kMinSerialRounds ||
                         now_s() - serial_start < seconds - main_s) &&
                        now_s() < deadline_s;
         ++round) {
      for (std::size_t f = 0; f < nf; ++f) {
        Timing c, d;
        traced_pair(cfg1, 1, f, fx.fields[f].reference, serial, c, d);
      }
    }
  }

  if (w.codec == Codec::Sz14) ok = szx_rows(fx, gate, traced) && ok;

  auto emit = [&](std::string name, double value, const char* unit) {
    out.push_back({std::move(name), value, unit});
  };
  double compress_ms = 0.0, decompress_ms = 0.0;
  for (const char* s : kCompressStages) compress_ms += traced.ms(s);
  for (const char* s : kDecodeStages) decompress_ms += traced.ms(s);
  auto stage = [&](const char* s, double total) {
    const std::string n = s;
    const double ms = traced.ms(s);
    const double in = traced.bytes_in(s);
    emit(n + ".ms", ms, "ms");
    emit(n + ".share", total > 0.0 ? ms / total : 0.0, "share");
    emit(n + ".ns_per_byte", in > 0.0 ? ms * 1e6 / in : 0.0, "ns/B");
    emit(n + ".bytes_in", in, "B");
    emit(n + ".bytes_out", traced.bytes_out(s), "B");
    emit(n + ".util", traced.util(s, w.threads), "share");
  };
  stage(kValueRange, compress_ms);
  for (const char* s : kCompressStages) stage(s, compress_ms);
  for (const char* s : kDecodeStages) stage(s, decompress_ms);
  // An SZx call is the whole of its direction: share 1 where it runs.
  for (const char* s : kSzxStages) stage(s, traced.ms(s));
  for (const char* s : kWaveStages) {
    const double t1 = serial.ms(s), tn = traced.ms(s);
    emit(std::string(s) + ".speedup_vs_t1", tn > 0.0 ? t1 / tn : 0.0, "x");
  }

  double code_plain = 0, code_blob = 0, bits = 0, unpred_frac = 0;
  for (const auto& s : sizes) {
    code_plain += s.code_plain;
    code_blob += s.code_blob;
    if (s.huffman) bits += 8 * s.code_plain / s.points;
    unpred_frac += s.unpred / s.points;
  }
  const auto n = static_cast<double>(nf);
  emit("deflate.codes.shrink",
       code_plain > 0 ? 1.0 - code_blob / code_plain : 0.0, "share");
  emit("sz.huffman.bits_per_code", bits / n, "bit");
  emit("sz.pqd.unpred_frac", unpred_frac / n, "share");

  const double coverage_c = median(cov_c), coverage_d = median(cov_d);
  emit("trace.coverage_compress", coverage_c, "share");
  emit("trace.coverage_decompress", coverage_d, "share");
  emit("trace.overhead", median(overhead), "share");
  for (const auto& [what, cov] : {std::pair{"compress", coverage_c},
                                  std::pair{"decompress", coverage_d}}) {
    if (std::fabs(cov - 1.0) > kCoverageTolerance) {
      std::printf(
          "SELF-CHECK %s stage rows sum to %.4f of the untraced median\n",
          what, cov);
      ok = false;
    }
  }
  return ok;
}

}  // namespace perfbench
