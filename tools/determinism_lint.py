#!/usr/bin/env python3
"""Determinism lint for src/.

The simulator's contract is bit-identical metrics and traces for a fixed
seed (docs/determinism.md, tools/check_determinism.sh). PR 3 fixed a
class of nondeterminism bugs that all share a signature greppable at
review time; this lint keeps the class from coming back:

  wall_clock        -- reading the host clock (std::chrono system/steady
                       /high_resolution clocks, time(), gettimeofday,
                       clock_gettime). Simulated time must come from the
                       virtual clock (src/vtime/).
  unordered_iter    -- range-for over an unordered_{map,set}: either the
                       type is spelled in the loop header, or the loop
                       walks a name (bare, or after `.` or `->`) that
                       some linted file declares with such a type.
                       Iteration order is hash-seed and allocator
                       dependent; any output or decision derived from it
                       jitters.
  pointer_order     -- ordered containers or sorts keyed on pointers
                       (std::map<T*, ...>, std::set<T*>). Address order
                       changes run to run under ASLR.
  threads           -- threads, locks and atomics (std::thread, std::mutex,
                       std::condition_variable, std::atomic and their
                       headers). Every rank is a continuation of one
                       event loop (src/vtime/engine.h); a second OS thread
                       would race on state that has no locks.

A finding on a line ending with the waiver comment

    // det-lint: allow(<rule>) - <reason>

is suppressed; the waiver must name the rule and carry a reason. The
waiver may also sit on the line directly above the finding.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

import re
import sys
from pathlib import Path

RULES = {
    "wall_clock": re.compile(
        r"(?:std::chrono::(?:system_clock|steady_clock|high_resolution_clock)"
        r"|\bgettimeofday\s*\("
        r"|\bclock_gettime\s*\("
        r"|(?<![\w:.])time\s*\(\s*(?:nullptr|NULL|0|&)"
        r")"
    ),
    "unordered_iter": re.compile(
        r"for\s*\(.*:\s*[^)]*\bunordered_(?:map|set|multimap|multiset)\b"
    ),
    "pointer_order": re.compile(
        r"std::(?:map|set|multimap|multiset)\s*<\s*(?:const\s+)?\w[\w:]*\s*\*"
    ),
    "threads": re.compile(
        r"std::(?:j?thread|(?:recursive_|shared_|timed_)?mutex"
        r"|condition_variable(?:_any)?|atomic(?:_ref|_flag)?)\b"
        r"|#\s*include\s*<(?:thread|mutex|shared_mutex|condition_variable"
        r"|atomic)>"
    ),
}

WAIVER = re.compile(r"//\s*det-lint:\s*allow\(([a-z_,\s]+)\)\s*-\s*\S")

# `unordered_map<K, std::unique_ptr<V>> name` (members, locals and
# parameters): the template arguments nest one level deep at most.
UNORDERED_DECL = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*"
    r"<(?:[^<>]|<[^<>]*>)*>\s*[&*]?\s*(\w+)"
)
# The range of a range-for: `for (... : a.b->name)` yields `name`.
RANGE_FOR_NAME = re.compile(
    r"for\s*\(.*(?<!:):(?!:)\s*(?:\w+(?:\.|->))*(\w+)\s*\)"
)


def waived(rule: str, line: str) -> bool:
    m = WAIVER.search(line)
    if not m:
        return False
    allowed = {r.strip() for r in m.group(1).split(",")}
    return rule in allowed


def code_of(line: str) -> str:
    return line.split("//", 1)[0] if "det-lint:" not in line else line


def unordered_names(texts: list) -> set:
    """Every name declared with an unordered container type."""
    names = set()
    for text in texts:
        for line in text.splitlines():
            names.update(UNORDERED_DECL.findall(code_of(line)))
    return names


def lint_file(path: Path, lines: list, unordered: set) -> list:
    findings = []
    for i, line in enumerate(lines):
        code = code_of(line)
        hits = [rule for rule, pat in RULES.items() if pat.search(code)]
        m = RANGE_FOR_NAME.search(code)
        if m and m.group(1) in unordered and "unordered_iter" not in hits:
            hits.append("unordered_iter")
        for rule in hits:
            if waived(rule, line):
                continue
            if i > 0 and waived(rule, lines[i - 1]):
                continue
            findings.append((path, i + 1, rule, line.strip()))
    return findings


def main(argv: list) -> int:
    if len(argv) < 2:
        print("usage: determinism_lint.py <file-or-dir>...", file=sys.stderr)
        return 2
    targets = []
    for arg in argv[1:]:
        p = Path(arg)
        if p.is_dir():
            targets.extend(sorted(p.rglob("*.h")))
            targets.extend(sorted(p.rglob("*.cpp")))
        elif p.is_file():
            targets.append(p)
        else:
            print(f"determinism_lint: no such path: {p}", file=sys.stderr)
            return 2
    findings = []
    texts = {}
    for f in sorted(set(targets)):
        try:
            texts[f] = f.read_text(errors="replace")
        except OSError as e:
            print(f"determinism_lint: cannot read {f}: {e}", file=sys.stderr)
            findings.append((f, 0, "io", str(e)))
    unordered = unordered_names(list(texts.values()))
    for f, text in texts.items():
        findings.extend(lint_file(f, text.splitlines(), unordered))
    for path, lineno, rule, text in sorted(findings):
        print(f"{path}:{lineno}: [{rule}] {text}")
    if findings:
        print(
            f"determinism_lint: {len(findings)} finding(s); waive a "
            "deliberate use with '// det-lint: allow(<rule>) - <reason>'",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
