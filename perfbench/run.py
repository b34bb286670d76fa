#!/usr/bin/env python3
"""Build and run the pipeline benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <ingest_burst|read_trickle|attack_mix> \
        --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (its own Cargo package, path-depending on crates/) in
release mode into $CARGO_TARGET_DIR (default .bench_build), stamps the
source revision, has the binary generate (or find cached) the seeded
corpus, then runs it from the checkout root and passes its output
through; the last stdout line is the JSON result. Exits non-zero
without a result when the repository sources are missing or the build
fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def revision():
    """git HEAD when available, else a digest of the sources the build uses."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("crates", "shims", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "node", "Cargo.toml")):
        sys.stderr.write("perfbench: repository sources (crates/) not found next to perfbench/\n")
        return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 3
    env["BIOT_PERFBENCH_COMMIT"] = revision()
    binary = os.path.join(target, "release", "biot-perfbench")
    # Corpus generation runs in a process of its own, so the measured one
    # always starts from the cached corpus.
    prepare = subprocess.run([binary] + sys.argv[1:] + ["--prepare", "1"],
                             cwd=ROOT, env=env, stdout=sys.stderr)
    if prepare.returncode != 0:
        return prepare.returncode
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
