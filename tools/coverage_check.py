#!/usr/bin/env python3
"""Line-coverage floor check for gcov-instrumented builds.

Walks a -DYUKTA_COVERAGE=ON build tree for .gcda files (so the test
suite must have run first), asks gcov for JSON intermediate records,
merges them per source file (a line counts as covered when any
translation unit executed it), and enforces a floor on the aggregate
line coverage of the audited directories -- by default the controller
and fault-injection layers, where an untested branch means an
unverified degradation path; the system identification layer (RLS +
drift detection) the online adaptation loop's no-false-swap guarantee
rests on; the design flow and its cache (src/core), whose keys decide
whether a stored controller may be served; and the sweep engine
(src/runner).

Usage:
  tools/coverage_check.py --build-dir build-cov [--floor 70]
      [--prefix src/controllers --prefix src/fault]
      [--summary coverage.md]

Exit status: 0 floor met, 1 floor missed or no data, 2 usage error.
"""

import argparse
import json
import os
import subprocess
import sys

DEFAULT_PREFIXES = ("src/controllers", "src/fault", "src/sysid", "src/core",
                    "src/runner")


def find_gcda(build_dir):
    """All .gcda files under the build tree (deterministic order)."""
    hits = []
    for root, _dirs, files in os.walk(build_dir):
        for name in files:
            if name.endswith(".gcda"):
                hits.append(os.path.join(root, name))
    return sorted(hits)


def gcov_records(gcda):
    """Yields parsed gcov JSON documents for one .gcda file."""
    proc = subprocess.run(
        ["gcov", "--json-format", "--stdout", gcda],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False)
    for line in proc.stdout.splitlines():
        line = line.strip()
        if not line.startswith(b"{"):
            continue
        try:
            yield json.loads(line)
        except json.JSONDecodeError:
            continue


def merge_coverage(build_dir, repo_root):
    """{repo-relative source: (instrumented set, covered set)}."""
    per_file = {}
    for gcda in find_gcda(build_dir):
        for doc in gcov_records(gcda):
            cwd = doc.get("current_working_directory", "")
            for record in doc.get("files", []):
                path = record.get("file", "")
                if not os.path.isabs(path):
                    path = os.path.join(cwd, path)
                path = os.path.realpath(path)
                rel = os.path.relpath(path, repo_root)
                if rel.startswith(".."):
                    continue  # System/third-party header.
                lines, covered = per_file.setdefault(rel, (set(), set()))
                for ln in record.get("lines", []):
                    number = ln.get("line_number")
                    if number is None:
                        continue
                    lines.add(number)
                    if ln.get("count", 0) > 0:
                        covered.add(number)
    return per_file


def main():
    parser = argparse.ArgumentParser(
        description="enforce a gcov line-coverage floor")
    parser.add_argument("--build-dir", required=True,
                        help="coverage-instrumented build tree (post-ctest)")
    parser.add_argument("--floor", type=float, default=70.0,
                        help="minimum aggregate line coverage in percent")
    parser.add_argument("--prefix", action="append", default=[],
                        help="repo-relative dir to audit (repeatable; "
                             f"default: {', '.join(DEFAULT_PREFIXES)})")
    parser.add_argument("--summary", default="",
                        help="also append a markdown table to this file "
                             "(e.g. $GITHUB_STEP_SUMMARY)")
    args = parser.parse_args()

    repo_root = os.path.realpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    prefixes = tuple(args.prefix) or DEFAULT_PREFIXES

    if not os.path.isdir(args.build_dir):
        print(f"coverage: build dir '{args.build_dir}' does not exist",
              file=sys.stderr)
        return 2

    per_file = merge_coverage(args.build_dir, repo_root)
    audited = {
        rel: sets for rel, sets in sorted(per_file.items())
        if any(rel.startswith(p.rstrip("/") + "/") or rel == p
               for p in prefixes)
    }
    if not audited:
        print("coverage: no .gcda data for the audited paths -- did the "
              "tests run in the coverage build?", file=sys.stderr)
        return 1

    rows = []
    total_lines = 0
    total_covered = 0
    for rel, (lines, covered) in audited.items():
        total_lines += len(lines)
        total_covered += len(covered)
        pct = 100.0 * len(covered) / len(lines) if lines else 100.0
        rows.append((rel, len(covered), len(lines), pct))

    aggregate = 100.0 * total_covered / total_lines if total_lines else 0.0
    ok = aggregate >= args.floor

    width = max(len(r[0]) for r in rows)
    print(f"line coverage over {', '.join(prefixes)}:")
    for rel, covered, lines, pct in rows:
        print(f"  {rel:<{width}}  {covered:>5}/{lines:<5}  {pct:6.1f}%")
    print(f"  {'TOTAL':<{width}}  {total_covered:>5}/{total_lines:<5}  "
          f"{aggregate:6.1f}%  (floor {args.floor:.1f}%)")
    print(f"coverage: {'OK' if ok else 'BELOW FLOOR'}")

    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as fh:
            fh.write("### Line coverage (controllers + fault)\n\n")
            fh.write("| file | covered | lines | % |\n")
            fh.write("|---|---:|---:|---:|\n")
            for rel, covered, lines, pct in rows:
                fh.write(f"| `{rel}` | {covered} | {lines} | {pct:.1f} |\n")
            fh.write(f"| **total** | {total_covered} | {total_lines} | "
                     f"**{aggregate:.1f}** |\n\n")
            fh.write(f"Floor: {args.floor:.1f}% — "
                     f"{'✅ met' if ok else '❌ missed'}\n")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
