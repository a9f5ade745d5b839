#!/usr/bin/env python3
"""Fail when a src/ library function has no caller in a shipped program.

Builds the repository at -O0 with -ffunction-sections/-fdata-sections
and links with --gc-sections, so every executable keeps only the
functions it can reach. It also builds perfbench from its own
perfbench/CMakeLists.txt the same way. A `camo::` function that is
defined (nm type T) in a src/ static library but kept by none of the
shipped programs -- tools/, bench/, examples/, perfbench and its
camosimd -- is unreached.

Every unreached function must be listed in the allowlist, one per line
as `<demangled signature>  # <Suite.TestName>`, naming the test that
reads it. The scan fails on:
  * an unreached function that is not listed;
  * a stale entry: listed, but now reached or no longer defined;
  * an entry without a test name, or naming a test that tests/ lacks;
  * more than MAX_ENTRIES entries.

Inline functions defined in headers are emitted as weak (W) symbols in
every object that uses them, not as T symbols of one library, so they
are out of this scan's reach.

Usage:
  python3 tools/reachability.py [--build-dir DIR] [--jobs N]
                                [--allowlist FILE]
Exit status: 0 clean, 1 findings, 2 build or usage error.
"""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

MAX_ENTRIES = 20
SHIPPED_DIRS = ("tools", "bench", "examples")
SCAN_FLAGS = [
    "-DCMAKE_BUILD_TYPE=None",
    "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def run(cmd):
    print("+ " + " ".join(str(c) for c in cmd), flush=True)
    subprocess.run(cmd, check=True)


def build(source, build_dir, jobs):
    run(["cmake", "-S", source, "-B", build_dir] + SCAN_FLAGS)
    run(["cmake", "--build", build_dir, "-j", str(jobs)])


def nm_symbols(path, types):
    out = subprocess.run(["nm", "-C", "--defined-only", str(path)],
                         check=True, capture_output=True,
                         text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in types:
            names.add(parts[2])
    return names


def shipped_programs(main_build, perf_build):
    programs = []
    for sub in SHIPPED_DIRS:
        programs += [p for p in sorted((main_build / sub).iterdir())
                     if p.is_file() and os.access(p, os.X_OK)]
    programs += [perf_build / "perfbench", perf_build / "camosimd"]
    return programs


def load_allowlist(path):
    entries = {}
    problems = []
    for n, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, test = line.rpartition("#")
        name, test = name.strip(), test.strip()
        if not sep or not name:
            name, test = line, ""
        if not re.fullmatch(r"\w+\.\w+", test):
            problems.append(f"{path}:{n}: entry names no test "
                            f"(want '<signature>  # Suite.Test'): {line}")
        entries[name] = (n, test)
    if len(entries) > MAX_ENTRIES:
        problems.append(f"{path}: {len(entries)} entries, at most "
                        f"{MAX_ENTRIES} allowed")
    return entries, problems


def test_exists(repo, test):
    suite, name = test.split(".", 1)
    pattern = re.compile(r"TEST(?:_F|_P)?\(\s*" + re.escape(suite) +
                         r"\s*,\s*" + re.escape(name) + r"\s*\)")
    return any(pattern.search(f.read_text(errors="replace"))
               for f in (repo / "tests").glob("*.cc"))


def main():
    repo = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default=str(repo / "build-reach"))
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--allowlist",
                    default=str(repo / "tools" / "reachable_allowlist.txt"))
    args = ap.parse_args()

    build_dir = Path(args.build_dir).resolve()
    main_build, perf_build = build_dir / "main", build_dir / "perfbench"
    try:
        build(repo, main_build, args.jobs)
        build(repo / "perfbench", perf_build, args.jobs)
    except subprocess.CalledProcessError as e:
        print(f"reachability: build failed: {e}", file=sys.stderr)
        return 2

    defined = set()
    for lib in sorted((main_build / "src").rglob("*.a")):
        defined |= {s for s in nm_symbols(lib, {"T"})
                    if s.startswith("camo::")}
    reached = set()
    for prog in shipped_programs(main_build, perf_build):
        reached |= nm_symbols(prog, {"T", "t", "W"})
    unreached = defined - reached

    entries, problems = load_allowlist(Path(args.allowlist))
    for name in sorted(unreached - entries.keys()):
        problems.append(f"unreached by any shipped program: {name}")
    for name, (n, test) in sorted(entries.items()):
        if name not in defined:
            problems.append(f"stale allowlist entry (line {n}), "
                            f"no longer defined: {name}")
        elif name in reached:
            problems.append(f"stale allowlist entry (line {n}), "
                            f"now reached by a shipped program: {name}")
        if re.fullmatch(r"\w+\.\w+", test) and not test_exists(repo, test):
            problems.append(f"allowlist entry (line {n}) names test "
                            f"{test}, which tests/ does not define")

    print(f"reachability: {len(defined)} camo:: library functions, "
          f"{len(unreached)} unreached, {len(entries)} allowlisted")
    for p in problems:
        print("reachability: " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
