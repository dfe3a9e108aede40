// The traced run: per-layer metrics taken by timing calls into each module's
// public functions from the benchmark's side. Nothing inside the library is
// instrumented and its telemetry::Session stays off.
#pragma once

#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Runs untraced and traced calls interleaved for about `seconds`, plus, for
/// a workload above budget 1, a traced repeat at budget 1. Appends every
/// per-layer metric to `out` (a stage the workload does not run reads 0).
/// Returns false when a self-check fails: staged bytes differ from
/// compress(), the rebuilt decode differs from decompress(), or the stage
/// rows miss the untraced median by more than 5%.
bool traced_run(const Workload& w, const Fixture& fx, Gate& gate,
                double seconds, double deadline_s, std::vector<Metric>& out);

}  // namespace perfbench
