#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 benchmark/run.py --workload <plan|mobility|service|city> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run builds the benchmark
package (benchmark/Cargo.toml, its own cargo workspace over the
repository's crates) into $CARGO_TARGET_DIR, or benchmark/target when
that is unset; traced runs use a second build with the program's obs
instrumentation compiled in, under <target>/traced. Build output goes
to stderr; the benchmark's own stdout follows, ending with the result
line. The exit code is the benchmark's (non-zero when a build fails or
a check does not hold).
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BIN = "uavnet-benchmark"


def arg_value(argv, flag):
    if flag in argv:
        i = argv.index(flag)
        if i + 1 < len(argv):
            return argv[i + 1]
    return None


def target_dir(traced):
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    base = os.path.abspath(os.path.join(ROOT, base))
    return os.path.join(base, "traced") if traced else base


def build(traced):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--target-dir", target_dir(traced),
    ]
    if traced:
        cmd += ["--features", "obs"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
    return done.returncode


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "crates", "vendor", "benchmark"],
                               cwd=ROOT, capture_output=True, text=True).stdout.strip()
        return out.stdout.strip() + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_hash():
    """SHA-256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    for top in ("crates", "vendor", "benchmark"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", ".bench_trace"))
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def rustc_version():
    try:
        return subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    except OSError:
        return "unknown"


def main():
    argv = sys.argv[1:]
    traced = arg_value(argv, "--trace") == "1"
    code = build(traced)
    if code != 0:
        print(f"benchmark build failed (exit {code})", file=sys.stderr)
        return code or 1
    env = dict(os.environ)
    env["UAVNET_BENCH_GIT_SHA"] = git_sha()
    env["UAVNET_BENCH_SOURCE_HASH"] = source_hash()
    env["UAVNET_BENCH_RUSTC"] = rustc_version()
    sys.stdout.flush()
    exe = os.path.join(target_dir(traced), "release", BIN)
    return subprocess.run([exe] + argv, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
