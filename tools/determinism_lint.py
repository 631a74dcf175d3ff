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
  unordered_iter    -- range-for over an unordered_{map,set}. Iteration
                       order is hash-seed and allocator dependent; any
                       output or decision derived from it jitters.
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


def waived(rule: str, line: str) -> bool:
    m = WAIVER.search(line)
    if not m:
        return False
    allowed = {r.strip() for r in m.group(1).split(",")}
    return rule in allowed


def lint_file(path: Path) -> list:
    findings = []
    try:
        lines = path.read_text(errors="replace").splitlines()
    except OSError as e:
        print(f"determinism_lint: cannot read {path}: {e}", file=sys.stderr)
        return [(path, 0, "io", str(e))]
    for i, line in enumerate(lines):
        code = line.split("//", 1)[0] if "det-lint:" not in line else line
        for rule, pat in RULES.items():
            if not pat.search(code):
                continue
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
    for f in sorted(set(targets)):
        findings.extend(lint_file(f))
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
