#!/usr/bin/env python3
"""Build the benchmark in Release and run one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload othello-er --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --reference      # recompute the stored O1-O3 values

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
build output goes to stderr so that the last line of stdout is the benchmark's
JSON result.  Spans of a traced run are written under .bench_out/.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def build() -> Path:
    if not (ROOT / "src" / "core" / "engine.hpp").is_file():
        sys.exit("perfbench: library sources (src/) not found next to perfbench/")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "3"],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main() -> int:
    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        print(f"perfbench: build failed ({e})", file=sys.stderr)
        return 2
    return subprocess.run([str(binary), *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
