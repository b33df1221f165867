#!/usr/bin/env python3
"""Build the MHH benchmark from source and run it.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); its output is sent to standard error, so the last
line of standard output is the benchmark's own JSON result. Exits non-zero,
printing no result, when the build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(here, "Cargo.toml"),
        ],
        cwd=root, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "mhh-perfbench")
    return subprocess.run([exe, *sys.argv[1:]], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
