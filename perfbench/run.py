#!/usr/bin/env python3
"""Builds the benchmark binary from source, then runs one workload.

    python3 perfbench/run.py --workload fig6_p2p --seed 1 --seconds 20 --trace 0

Run from the root of a source tree. The build goes to .bench_build/perfbench
(configured once, then incremental). The binary's last stdout line is the
JSON result; see perfbench/README.md. Exits non-zero without a result when
the sources or the toolchain are missing.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(os.getcwd(), ".bench_build")
BUILD = os.path.join(OUT, "perfbench")


def build():
    """Configures and builds the benchmark binary; returns its path."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    # Keep the compiler's temporary files inside the tree as well.
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(BUILD, "perfbench")


def commit():
    """The source commit, when the tree is a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def arg(argv, name, default):
    """The value after `name` in argv, or `default`."""
    i = argv.index(name) + 1 if name in argv else len(argv)
    return argv[i] if i < len(argv) else default


def main(argv):
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    name = f"{arg(argv, '--workload', 'none')}-seed{arg(argv, '--seed', '0')}.jsonl"
    spans = os.path.join(OUT, "spans", name)
    args = [binary, "--reference", os.path.join(HERE, "reference"), "--spans", spans,
            "--commit", commit()] + argv
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
