#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/CMakeLists.txt (the library
from src/ plus the harness in perfbench/harness/) in Release mode under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs the
harness with the same arguments. The harness's last line of standard output is
the result JSON; build output goes to standard error. Extra harness options
(--inject none|flip-byte|tight-bound) pass through.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# A run may take 180 s; the harness stops measuring well before this.
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = HERE.parent / target
    return target / "perfbench"


def build(out: Path) -> Path:
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target",
                    "wavesz_perfbench", "-j", "4"],
                   check=True, stdout=sys.stderr)
    return out / "wavesz_perfbench"


def main() -> int:
    try:
        exe = build(build_dir())
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"error: benchmark build failed: {e}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    try:
        return subprocess.run([str(exe), *sys.argv[1:]],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: benchmark ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
