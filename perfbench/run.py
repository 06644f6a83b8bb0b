#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pair-cold --seed 1 --seconds 20 --trace 0

Builds affidavitd and the benchmark program with -pgo=default.pgo into
.bench_build (or $CARGO_TARGET_DIR), with the Go build cache, temp files and
daemon state kept there too, then runs one workload. The last line of
standard output is the benchmark's JSON result; build output goes to
standard error. Result files with provenance land in <build>/results.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

RUN_LIMIT_S = 170  # the whole invocation must end within 180 s once built


def source_digest(root):
    """Digest of the sources a build reads, for checkouts without git."""
    h = hashlib.sha256()
    skip = {".bench_build", ".git"}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in skip and not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith((".go", ".mod", ".pgo")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def commit_of(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return source_digest(root)
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return source_digest(root)


def go_env(build):
    env = dict(os.environ)
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOSUMDB": "off",
    })
    return env


def build(root, bindir, env):
    """Builds both binaries with the repository's PGO profile."""
    pgo = os.path.join(root, "default.pgo")
    if not os.path.isfile(pgo):
        raise RuntimeError("default.pgo is missing at the checkout root")
    targets = [
        (root, "./cmd/affidavitd", os.path.join(bindir, "affidavitd")),
        (os.path.join(root, "perfbench"), ".", os.path.join(bindir, "perfbench")),
    ]
    for cwd, pkg, out in targets:
        cmd = ["go", "build", "-pgo=" + pgo, "-o", out, pkg]
        res = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))
    info = subprocess.run(["go", "version", "-m", targets[0][2]], env=env, capture_output=True, text=True)
    if "-pgo=" not in info.stdout:
        raise RuntimeError("affidavitd was not built with -pgo")
    with open(pgo, "rb") as f:
        return "pgo=default.pgo sha256:" + hashlib.sha256(f.read()).hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "BENCHMARK.json")):
        print("perfbench: run from the checkout root (no BENCHMARK.json here)", file=sys.stderr)
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bindir = os.path.join(build_dir, "bin")
    env = go_env(build_dir)
    try:
        pgo = build(root, bindir, env)
    except (OSError, RuntimeError) as e:
        print("perfbench:", e, file=sys.stderr)
        return 1

    cmd = [
        os.path.join(bindir, "perfbench"),
        "-workload", args.workload, "-seed", str(args.seed),
        "-seconds", str(args.seconds), "-trace", str(args.trace),
        "-affidavitd", os.path.join(bindir, "affidavitd"),
        "-work", os.path.join(build_dir, "work", args.workload),
        "-results", os.path.join(build_dir, "results"),
        "-pgo", pgo, "-commit", commit_of(root),
    ]
    # The program and the daemon it starts share one process group, so a
    # timeout, an early exit or a SIGTERM to this script can stop both.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    started = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_LIMIT_S, file=sys.stderr)
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        print("perfbench: run took %.1f s" % (time.monotonic() - started), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
