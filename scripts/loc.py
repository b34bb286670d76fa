#!/usr/bin/env python3
"""Count the repository's Rust lines, per crate and in total.

    python3 scripts/loc.py

Two figures per crate:

* all: every line of every `.rs` file outside `target/`, `perfbench/`,
  `shims/` and hidden directories;
* non-test: the lines of each `.rs` file under `crates/*/src` and `src/`
  that come before the file's first `#[cfg(test)]`. A file named
  `tests.rs` is a test module in a file of its own and counts as test
  code.

Files under `crates/<name>/` belong to crate `<name>`, the rest (`src/`,
`tests/`, `examples/`) to the root package `biot`. New tests add lines,
so a simplification is judged on the non-test figure.
"""

import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP_TOP = {"target", "perfbench", "shims"}
TEST_MARK = "#[cfg(test)]"


def rust_files():
    for path in sorted(ROOT.rglob("*.rs")):
        rel = path.relative_to(ROOT)
        if rel.parts[0] in SKIP_TOP or any(p.startswith(".") for p in rel.parts):
            continue
        if "target" in rel.parts:
            continue
        yield rel


def crate_of(rel):
    if rel.parts[0] == "crates" and len(rel.parts) > 2:
        return rel.parts[1]
    return "biot"


def is_source(rel):
    """Whether `rel` lies under `crates/*/src` or the root `src/`."""
    if rel.parts[0] == "src":
        return True
    return rel.parts[0] == "crates" and len(rel.parts) > 3 and rel.parts[2] == "src"


def non_test_lines(lines):
    for i, line in enumerate(lines):
        if line.strip().startswith(TEST_MARK):
            return i
    return len(lines)


def main():
    total = defaultdict(int)
    non_test = defaultdict(int)
    for rel in rust_files():
        lines = (ROOT / rel).read_text(encoding="utf-8", errors="replace").splitlines()
        crate = crate_of(rel)
        total[crate] += len(lines)
        if is_source(rel) and rel.name != "tests.rs":
            non_test[crate] += non_test_lines(lines)
    width = max(len(c) for c in total) if total else 5
    print(f"{'crate':<{width}}  {'all':>7}  {'non-test':>8}")
    for crate in sorted(total):
        print(f"{crate:<{width}}  {total[crate]:>7}  {non_test[crate]:>8}")
    print(f"{'total':<{width}}  {sum(total.values()):>7}  {sum(non_test.values()):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
