#!/usr/bin/env python3
"""Documentation lint for docs/, README.md, DESIGN.md and EXPERIMENTS.md.

The docs tree makes grep-checkable claims: it names repo files, env vars,
command-line flags, and metric counter families. Each of those drifts
silently when code moves - a renamed bench flag or a dropped env var
leaves the sentence looking just as authoritative as the day it was true.
This lint (the docs-side sibling of determinism_lint.py) re-derives every
such claim from the tree on each run:

  broken_ref      -- a repo path mentioned in a doc (docs/foo.md,
                     src/bar/baz.h, tools/x.py, ... or a relative
                     markdown link target) that does not exist, or a
                     (build/)tools/<name> or (build/)bench/<name> binary
                     with no <name>.cpp, .py or .sh source.
  unknown_env     -- a GPUDDT_* environment/build variable documented but
                     never read anywhere under src/, tools/, bench/,
                     tests/, examples/ or the CMake files.
  unknown_flag    -- a --command-line-flag documented but absent from the
                     same corpus.
  unknown_family  -- a `family.metric` counter documented in
                     docs/metrics.md whose family is not pre-registered
                     in kKnownFamilies (tools/metrics_diff.cpp).
  undocumented_family -- a kKnownFamilies entry that docs/metrics.md
                     never mentions (reported against metrics.md line 1).
  stale_test      -- a backticked gtest reference, `Suite.Name` or
                     `Suite.*`, with no matching TEST, TEST_F or TEST_P
                     in tests/*.cpp.

A finding on a line carrying (or directly below) the waiver comment

    <!-- doc-lint: allow(<rule>) - <reason> -->

is suppressed; the waiver must name the rule and carry a reason.

Usage: doc_lint.py <repo-root>
Exit status: 0 clean, 1 findings, 2 usage error.
"""

import re
import sys
from pathlib import Path

REF = re.compile(
    r"\b(?:docs|src|tools|bench|tests|examples)/[A-Za-z0-9_./-]*"
    r"[A-Za-z0-9_-]\.[A-Za-z0-9_]+"
)
# An extension-less tool or bench binary, bare or under build/.
BINARY = re.compile(
    r"(?<![\w.-])(?<![\w-]/)(?:build/)?(?:tools|bench)/[A-Za-z0-9_-]+"
    r"(?![\w/-])(?!\.\w)"
)
MDLINK = re.compile(r"\]\(([^)#\s]+)(?:#[^)\s]*)?\)")
ENV = re.compile(r"\bGPUDDT_[A-Z0-9_]+\b")
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9_-]{2,}")
METRIC = re.compile(r"`([a-z_]+)\.([a-z0-9_.*]+)`")
GTEST_REF = re.compile(r"`([A-Z]\w*)\.(\*|[A-Z]\w*)`")
GTEST_DEF = re.compile(r"\bTEST(?:_F|_P)?\s*\(\s*(\w+)\s*,\s*(\w+)\s*\)")
WAIVER = re.compile(r"<!--\s*doc-lint:\s*allow\(([a-z_,\s]+)\)\s*-\s*\S")

CORPUS_DIRS = ("src", "tools", "bench", "tests", "examples")
CORPUS_SUFFIXES = {".h", ".cpp", ".py", ".sh", ".cmake", ".txt", ".json"}
NOT_A_METRIC_SUFFIX = {"md", "json", "cpp", "h", "py", "sh", "txt", "cmake"}

# Flags owned by external tools the docs legitimately invoke (cmake,
# ctest, ...); the corpus only proves flags this repo itself parses.
EXTERNAL_FLAGS = {"--preset", "--benchmark_min_time"}
TOP_LEVEL_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

# Dump sections that are not counter families: `trace.dropped` is a field
# of the gpuddt-metrics-v1 trace section (docs/tracing.md), never a
# gated counter, so kKnownFamilies rightly omits it.
NONCOUNTER_NAMESPACES = {"trace."}


def load_corpus(root: Path) -> str:
    """All source/tooling text the docs may make claims about."""
    chunks = []
    for d in CORPUS_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in CORPUS_SUFFIXES:
                chunks.append(p.read_text(errors="replace"))
    for name in ("CMakeLists.txt", "CMakePresets.json"):
        p = root / name
        if p.is_file():
            chunks.append(p.read_text(errors="replace"))
    return "\n".join(chunks)


def known_families(root: Path) -> set:
    """The kKnownFamilies initializer in tools/metrics_diff.cpp."""
    src = root / "tools" / "metrics_diff.cpp"
    if not src.is_file():
        return set()
    m = re.search(r"kKnownFamilies\[\]\s*=\s*\{(.*?)\};",
                  src.read_text(errors="replace"), re.DOTALL)
    if not m:
        return set()
    return set(re.findall(r'"([a-z_]+\.)"', m.group(1)))


def gtests(root: Path) -> set:
    """(suite, name) of every TEST, TEST_F and TEST_P in tests/*.cpp, plus
    (suite, "*") for each suite. Fixture trees below tests/ don't count."""
    found = set()
    for p in sorted((root / "tests").glob("*.cpp")):
        for suite, name in GTEST_DEF.findall(p.read_text(errors="replace")):
            found |= {(suite, name), (suite, "*")}
    return found


def binary_exists(root: Path, ref: str) -> bool:
    """A directory, or a binary built from <name>.{cpp,py,sh}."""
    path = root / ref.removeprefix("build/")
    return path.is_dir() or any(
        path.with_suffix(ext).is_file() for ext in (".cpp", ".py", ".sh"))


def waived(rule: str, lines: list, i: int) -> bool:
    for line in (lines[i], lines[i - 1] if i > 0 else ""):
        m = WAIVER.search(line)
        if m and rule in {r.strip() for r in m.group(1).split(",")}:
            return True
    return False


def lint_doc(root: Path, doc: Path, corpus: str, families: set,
             tests: set) -> list:
    findings = []
    lines = doc.read_text(errors="replace").splitlines()
    in_fence = False
    for i, line in enumerate(lines):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue

        for m in REF.finditer(line):
            if not (root / m.group(0)).is_file():
                if not waived("broken_ref", lines, i):
                    findings.append((doc, i + 1, "broken_ref", m.group(0)))
        for m in BINARY.finditer(line):
            if not binary_exists(root, m.group(0)):
                if not waived("broken_ref", lines, i):
                    findings.append((doc, i + 1, "broken_ref", m.group(0)))
        for m in MDLINK.finditer(line):
            target = m.group(1)
            if re.match(r"[a-z]+:", target):  # http:, https:, mailto:
                continue
            if not (doc.parent / target).exists():
                if not waived("broken_ref", lines, i):
                    findings.append((doc, i + 1, "broken_ref", target))

        for m in GTEST_REF.finditer(line):
            if m.groups() not in tests:
                if not waived("stale_test", lines, i):
                    findings.append(
                        (doc, i + 1, "stale_test", m.group(0).strip("`")))

        for m in ENV.finditer(line):
            if m.group(0) not in corpus:
                if not waived("unknown_env", lines, i):
                    findings.append((doc, i + 1, "unknown_env", m.group(0)))

        # Fenced blocks are often shell transcripts of external tools;
        # only prose and inline code make flag claims we hold the tree to.
        if not in_fence:
            for m in FLAG.finditer(line):
                if m.group(0) in EXTERNAL_FLAGS:
                    continue
                if m.group(0) not in corpus:
                    if not waived("unknown_flag", lines, i):
                        findings.append(
                            (doc, i + 1, "unknown_flag", m.group(0)))

        if doc.name == "metrics.md":
            for m in METRIC.finditer(line):
                token = m.group(0).strip("`")
                if "/" in token or token.rsplit(".", 1)[-1] in \
                        NOT_A_METRIC_SUFFIX:
                    continue
                family = m.group(1) + "."
                if family in NONCOUNTER_NAMESPACES:
                    continue
                if family not in families:
                    if not waived("unknown_family", lines, i):
                        findings.append(
                            (doc, i + 1, "unknown_family", token))
    return findings


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: doc_lint.py <repo-root>", file=sys.stderr)
        return 2
    root = Path(argv[1])
    docs = sorted((root / "docs").glob("*.md")) if (root / "docs").is_dir() \
        else []
    if not docs:
        print(f"doc_lint: no docs/*.md under {root}", file=sys.stderr)
        return 2
    docs += [root / name for name in TOP_LEVEL_DOCS if (root / name).is_file()]
    corpus = load_corpus(root)
    families = known_families(root)
    tests = gtests(root)

    findings = []
    for doc in docs:
        findings.extend(lint_doc(root, doc, corpus, families, tests))

    metrics_md = root / "docs" / "metrics.md"
    if metrics_md.is_file() and families:
        text = metrics_md.read_text(errors="replace")
        for fam in sorted(families):
            # Documented means a backticked `family.` or `family.metric`
            # mention - prose that merely contains the word doesn't count.
            if not re.search(rf"`{re.escape(fam)}", text):
                findings.append(
                    (metrics_md, 1, "undocumented_family", fam))

    for path, lineno, rule, text in sorted(findings):
        print(f"{path}:{lineno}: [{rule}] {text}")
    if findings:
        print(
            f"doc_lint: {len(findings)} finding(s); waive a deliberate "
            "mention with '<!-- doc-lint: allow(<rule>) - <reason> -->'",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
