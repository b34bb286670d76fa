#!/usr/bin/env python3
"""Fail if non-test code on the node's dependency closure spawns a thread.

The production node runs every path on one event-loop thread (DESIGN.md
§14.1). This check pins that invariant: it lists the crates `biot-node`
links in normal builds with

    cargo tree -p biot-node -e normal --offline --prefix none

and searches the `src/` tree of each for `thread::spawn`, `thread::scope`
and `thread::Builder`. Test code is skipped: everything after a file's
first `#[cfg(test)]`, files named `tests.rs`, and `//` comment lines.

Run from anywhere inside the repository:

    python3 scripts/check_no_threads.py

Exits 0 when clean, 1 with one `path:line: text` per hit otherwise.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PATTERN = re.compile(r"\bthread::(spawn|scope|Builder)\b")
CRATE_DIR = re.compile(r"\((/[^)]*)\)\s*(\(\*\))?\s*$")


def closure_dirs():
    """Source directories of every path crate in biot-node's closure."""
    out = subprocess.run(
        ["cargo", "tree", "-p", "biot-node", "-e", "normal", "--offline", "--prefix", "none"],
        cwd=ROOT,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    dirs = set()
    for line in out.splitlines():
        m = CRATE_DIR.search(line)
        if m:
            dirs.add(Path(m.group(1)))
    return sorted(dirs)


def hits_in(path):
    """(line number, text) of every non-test thread spawn in one file."""
    if path.name == "tests.rs":
        return []
    hits = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("#[cfg(test)]"):
            break
        if stripped.startswith("//"):
            continue
        if PATTERN.search(line):
            hits.append((number, stripped))
    return hits


def main():
    dirs = closure_dirs()
    if not dirs:
        print("cargo tree listed no path crates for biot-node", file=sys.stderr)
        return 1
    failures = []
    for crate in dirs:
        for path in sorted((crate / "src").rglob("*.rs")):
            for number, text in hits_in(path):
                failures.append(f"{path.relative_to(ROOT)}:{number}: {text}")
    print(f"checked {len(dirs)} crates on biot-node's dependency closure")
    if failures:
        print("non-test code on the node's dependency closure spawns threads:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("no thread spawns outside test code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
