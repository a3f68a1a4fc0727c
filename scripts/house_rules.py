#!/usr/bin/env python3
"""Repo-specific lint rules clang-tidy cannot express, over src/.

Rules (each suppressible only by fixing the code or an explicit inline
annotation carrying a justification):

  int-index-loop   A raw `int` loop variable iterating an IT-indexed
                   structure (bound mentions nrows/ncols/nnz()/rowptr/
                   colids). Index arithmetic must stay in the declared
                   index width (IT / index_t / std::int64_t); `int` loops
                   are fine for shard counts, thread ids, bins, etc.

  unguarded-memcpy std::memcpy whose source/dest comes from vector::data()
                   without a zero-size guard — the PR 7 UBSan bug class
                   (data() may be null for an empty vector and memcpy's
                   pointer args are declared nonnull even for n == 0).
                   Safe forms: a pure `sizeof(...)` byte count, an
                   enclosing/preceding emptiness or nonzero-size guard, or
                   a `// memcpy-safe: <why>` annotation on one of the two
                   preceding lines.

  stats-in-omp     A write to a non-atomic `stats->` field inside an
                   `#pragma omp parallel` region. The Stats structs shared
                   across threads are atomics with fetch_add; plain
                   `stats->x += ...` in a parallel region is a data race.
                   Annotate deliberate single-thread sections with
                   `// stats-safe: <why>`.

  ad-hoc-cache     `.erase(x.begin())` or `.pop_front()` — the hand-rolled
                   FIFO eviction that five caches once each carried. Bounded
                   caches use util/bounded_cache.hpp, the one eviction
                   implementation (exempt). A queue that is not a cache
                   takes a `// not-a-cache: <why>` annotation on the line or
                   the one before it.

Exit status: 0 when clean, 1 with one `path:line: rule: message` per
finding otherwise.
"""

from __future__ import annotations

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"

IT_BOUND = re.compile(r"\b(nrows|ncols|rowptr|colids|nnz\s*\()")
INT_LOOP = re.compile(
    r"for\s*\(\s*int\s+(\w+)\s*=\s*[^;]*;\s*\1\s*<\s*([^;]*);"
)
MEMCPY = re.compile(r"\bmemcpy\s*\(")
SIZEOF_ONLY = re.compile(r"^\s*sizeof\s*\([^)]*\)\s*$")
GUARD = re.compile(r"\bif\s*\(|\bwhile\s*\(|\?")
OMP_PARALLEL = re.compile(r"#\s*pragma\s+omp\s.*\bparallel\b")
STATS_WRITE = re.compile(r"\bstats\s*->\s*(\w+)\s*(\+=|-=|\*=|=[^=])")
FIFO_EVICT = re.compile(
    r"\.erase\(\s*[\w.>-]*?(\.|->)begin\(\)\s*[,)]|\.pop_front\s*\(")
CACHE_UTIL = SRC / "util" / "bounded_cache.hpp"


def strip_comments(line: str) -> str:
    """Drop // comments and string literals so regexes see only code."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    return re.sub(r"//.*$", "", line)


def split_args(text: str) -> list[str]:
    """Split a call's argument text at top-level commas."""
    args, depth, cur = [], 0, []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == "," and depth == 0:
            args.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    args.append("".join(cur))
    return args


def memcpy_size_arg(lines: list[str], i: int) -> str | None:
    """Extract the third memcpy argument, spanning continuation lines."""
    text = ""
    for j in range(i, min(i + 6, len(lines))):
        text += strip_comments(lines[j])
        if ";" in text:
            break
    m = MEMCPY.search(text)
    if m is None:
        return None
    depth, start = 0, m.end()
    for k in range(start, len(text)):
        if text[k] == "(":
            depth += 1
        elif text[k] == ")":
            if depth == 0:
                args = split_args(text[start:k])
                return args[2].strip() if len(args) >= 3 else None
            depth -= 1
    return None


def check_file(path: pathlib.Path) -> list[tuple[int, str, str]]:
    raw = path.read_text().splitlines()
    code = [strip_comments(l) for l in raw]
    findings: list[tuple[int, str, str]] = []

    for i, line in enumerate(code):
        m = INT_LOOP.search(line)
        if m and IT_BOUND.search(m.group(2)):
            findings.append(
                (i + 1, "int-index-loop",
                 f"`int {m.group(1)}` iterates an IT-indexed bound "
                 f"({m.group(2).strip()}); use the index type (IT)"))

    for i, line in enumerate(code):
        if not MEMCPY.search(line):
            continue
        if any("memcpy-safe:" in raw[j] for j in range(max(0, i - 2), i + 1)):
            continue
        size = memcpy_size_arg(code, i)
        if size is not None and SIZEOF_ONLY.match(size):
            continue  # constant byte count: pointers are &obj, never data()
        context = " ".join(code[max(0, i - 3):i + 1])
        if GUARD.search(context):
            continue  # an emptiness/nonzero guard dominates the call
        findings.append(
            (i + 1, "unguarded-memcpy",
             "memcpy without a zero-size guard (vector data() may be null "
             "for empty inputs); guard it or annotate `// memcpy-safe:`"))

    if path != CACHE_UTIL:
        for i, line in enumerate(code):
            annotated = any("not-a-cache:" in raw[j]
                            for j in range(max(0, i - 1), i + 1))
            if FIFO_EVICT.search(line) and not annotated:
                findings.append(
                    (i + 1, "ad-hoc-cache",
                     "hand-rolled FIFO eviction; use util/bounded_cache.hpp "
                     "or annotate a non-cache queue `// not-a-cache:`"))

    # stats-in-omp: walk each `#pragma omp ... parallel` region's braces.
    i = 0
    while i < len(code):
        if OMP_PARALLEL.search(code[i]):
            depth, j, opened = 0, i + 1, False
            while j < len(code):
                for ch in code[j]:
                    if ch == "{":
                        depth += 1
                        opened = True
                    elif ch == "}":
                        depth -= 1
                m = STATS_WRITE.search(code[j])
                if m and "stats-safe:" not in raw[j] and (
                        j == 0 or "stats-safe:" not in raw[j - 1]):
                    findings.append(
                        (j + 1, "stats-in-omp",
                         f"non-atomic write to stats->{m.group(1)} inside an "
                         "omp parallel region; use an atomic or hoist it"))
                if opened and depth == 0:
                    break
                if not opened and code[j].strip().endswith(";"):
                    break  # single-statement region
                j += 1
        i += 1
    return findings


def main() -> int:
    n = 0
    for path in sorted([*SRC.rglob("*.hpp"), *SRC.rglob("*.cpp")]):
        for line, rule, msg in check_file(path):
            rel = path.relative_to(REPO)
            print(f"{rel}:{line}: {rule}: {msg}")
            n += 1
    if n:
        print(f"house_rules: {n} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
