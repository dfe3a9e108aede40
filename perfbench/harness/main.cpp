// The repository benchmark harness. Usage:
//   wavesz_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--inject none|flip-byte|tight-bound]
// --trace 0 times compress() and decompress() with no tracing and prints the
// end-to-end metrics; --trace 1 prints the per-layer ledger (ledger.hpp).
// Every timed call passes the correctness gate (workload.hpp). The last line
// of standard output is one JSON object; the exit status is 0 only when no
// operation failed and every self-check held.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ledger.hpp"
#include "util/simd.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

// Enough calls per direction that the medians and the 75th percentile rest
// on many samples even when the calls are slow.
constexpr std::size_t kMinSamples = 100;
// Measuring stops here even short of kMinSamples, so a run stays well inside
// the 180 s a run may take.
constexpr double kDeadlineS = 140.0;
// setup_s is the median of this many set-ups, each in a fresh process.
constexpr int kSetupReps = 3;

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  Inject inject = Inject::None;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: wavesz_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 "
               "[--inject none|flip-byte|tight-bound]\nworkloads: %s\n",
               why.c_str(), workload_names().c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(key));
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = find_workload(value);
        if (a.workload == nullptr) usage("unknown workload " + value);
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = std::stoi(value) != 0;
      } else if (key == "--inject") {
        if (value == "none") a.inject = Inject::None;
        else if (value == "flip-byte") a.inject = Inject::FlipByte;
        else if (value == "tight-bound") a.inject = Inject::TightBound;
        else usage("unknown fault " + value);
      } else {
        usage("unknown option " + std::string(key));
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + std::string(key));
    }
  }
  if (a.workload == nullptr) usage("--workload is required");
  return a;
}

/// Mean over fields of each field's nearest-rank 75th percentile of call
/// time. Taken per field for the reason medians are (mean_of_medians): over
/// the pooled calls the 75th percentile jumps between the fields' clusters.
/// The 90th moved by a quartile spread of 22% of its median across ten runs
/// of wavesz-nyx-t4: contention from outside the guest comes in bursts of
/// about 2 s that double call times, and whether they cover more than a
/// tenth of a run is chance.
double p75(const std::vector<std::vector<double>>& per_field) {
  double sum = 0.0;
  std::size_t n = 0;
  for (auto v : per_field) {
    if (v.empty()) continue;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(0.75 * static_cast<double>(v.size())));
    sum += v[std::max<std::size_t>(rank, 1) - 1];
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

/// Untraced compress() and decompress() round-robin over the fields for
/// `seconds`, and on until both directions have kMinSamples samples. The
/// throughputs divide by the mean over fields of the per-field median.
void end_to_end(const Workload& w, const Fixture& fx, double setup_s,
                Gate& gate, double seconds, double deadline_s,
                std::vector<Metric>& out) {
  const auto cfg = config(w, w.threads);
  const std::size_t nf = fx.fields.size();
  std::vector<std::vector<double>> c_ms(nf), d_ms(nf);
  std::size_t calls = 0;  // per direction; every decompress follows a compress
  const double start = now_s();
  while ((now_s() - start < seconds || calls < kMinSamples) &&
         now_s() < deadline_s) {
    for (std::size_t i = 0; i < nf; ++i, ++calls) {
      const auto bytes = timed_compress(w, cfg, fx.fields[i], gate, c_ms[i]);
      if (!bytes.empty()) {
        timed_decompress(w, bytes, fx.fields[i], gate, d_ms[i]);
      }
    }
  }
  if (calls < kMinSamples) {
    std::printf("WARN only %zu samples per direction\n", calls);
  }
  std::printf("samples %zu per direction\n", calls);

  const double mb = static_cast<double>(fx.field_bytes) / 1e6;
  double in_bytes = 0, out_bytes = 0, psnr = 0;
  for (const auto& f : fx.fields) {
    in_bytes += static_cast<double>(f.data.size() * sizeof(float));
    out_bytes += static_cast<double>(f.reference.size());
    psnr += f.psnr_db;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double error_rate = static_cast<double>(gate.failed()) /
                            static_cast<double>(std::max<std::size_t>(
                                gate.attempted(), 1));
  std::printf("error_rate %.6g (%zu of %zu operations failed)\n", error_rate,
              gate.failed(), gate.attempted());
  out.push_back({"setup_s", setup_s, "s"});
  out.push_back(
      {"compress_mbps", mb / (mean_of_medians(c_ms) / 1e3), "MB/s"});
  out.push_back({"compress_ms_p75", p75(c_ms), "ms"});
  out.push_back(
      {"decompress_mbps", mb / (mean_of_medians(d_ms) / 1e3), "MB/s"});
  out.push_back({"decompress_ms_p75", p75(d_ms), "ms"});
  out.push_back({"ratio", in_bytes / out_bytes, "x"});
  out.push_back(
      {"psnr_db", psnr / static_cast<double>(fx.fields.size()), "dB"});
  out.push_back({"rss_peak_mb", static_cast<double>(ru.ru_maxrss) * 1024 / 1e6,
                 "MB"});
  out.push_back({"success_rate", 1.0 - error_rate, "share"});
}

/// Seconds of one set_up() in a child forked before this process has
/// started a thread, so the child pays every cold-start cost: first touches
/// of its memory and, above budget 1, the creation of the OpenMP team.
/// Throws when the child fails.
double child_set_up_s(const Workload& w, std::uint64_t seed) {
  int fd[2];
  if (pipe(fd) != 0) throw std::runtime_error("pipe() failed");
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) {
    close(fd[0]);
    double s = -1.0;
    try {
      Gate gate(Inject::None);
      const Fixture fx = set_up(w, seed, gate);
      if (gate.failed() == 0) s = fx.setup_s;
    } catch (const std::exception&) {
    }
    const bool sent = write(fd[1], &s, sizeof s) == sizeof s;
    _exit(sent && s >= 0.0 ? 0 : 1);
  }
  close(fd[1]);
  double s = -1.0;
  const bool got = read(fd[0], &s, sizeof s) == sizeof s;
  close(fd[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up failed in a child process");
  }
  return s;
}

void print_host(const Workload& w, const Fixture& fx, const Args& a,
                const std::vector<double>& setups) {
  namespace simd = wavesz::simd;
  std::string list;
  for (double s : setups) {
    if (!list.empty()) list += ", ";
    list += std::to_string(s);
  }
  std::printf(
      "host {\"nproc\": %ld, \"simd_detected\": \"%s\", \"simd_active\": "
      "\"%s\", \"build_type\": \"%s\", \"l2_bytes_per_core\": %ld, "
      "\"l3_bytes\": %ld, \"workload\": \"%.*s\", \"seed\": %llu, "
      "\"threads\": %d, \"fields\": %zu, \"bytes_per_field\": %zu, "
      "\"setup_s\": [%s], \"note\": \"ns_per_byte and MB/s are computed "
      "from array sizes, not measured traffic; the fields fit in the "
      "reported L3, so no DRAM roofline ratio is claimed\"}\n",
      sysconf(_SC_NPROCESSORS_ONLN), simd::level_name(simd::detected()),
      simd::level_name(simd::active()), PERFBENCH_BUILD_TYPE,
      sysconf(_SC_LEVEL2_CACHE_SIZE), sysconf(_SC_LEVEL3_CACHE_SIZE),
      static_cast<int>(w.name.size()), w.name.data(),
      static_cast<unsigned long long>(a.seed), w.threads, fx.fields.size(),
      fx.field_bytes, list.c_str());
}

void print_result(bool correct, const Gate& gate,
                  const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("metric %-40s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              std::max<std::size_t>(gate.attempted(), 1), gate.failed());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // A direction with no successful call divides by zero; JSON has no inf.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(const Args& a) {
  const double deadline = now_s() + kDeadlineS;
  const Workload& w = *a.workload;
  // setup_s is reported by the untraced run only. Its first kSetupReps - 1
  // samples come from children, forked before this process starts a thread.
  std::vector<double> setups;
  for (int i = 1; i < kSetupReps && !a.trace; ++i) {
    setups.push_back(child_set_up_s(w, a.seed));
  }
  if (a.trace) {
    // Keep freed memory in the process. Otherwise glibc hands large blocks
    // back to the kernel depending on how the harness's own allocations
    // interleave with the library's, and a timed call pays page faults that
    // the next one may not: the stage sums then swung by +-5% against the
    // untraced calls. First touches now land in set-up.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
  }
  Gate gate(a.inject);
  const Fixture fx = set_up(w, a.seed, gate);
  setups.push_back(fx.setup_s);
  print_host(w, fx, a, setups);
  std::vector<Metric> metrics;
  bool ok = true;
  if (a.trace) {
    ok = traced_run(w, fx, gate, a.seconds, deadline, metrics);
  } else {
    end_to_end(w, fx, median(setups), gate, a.seconds, deadline, metrics);
  }
  const bool correct = ok && gate.failed() == 0;
  print_result(correct, gate, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::parse(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
