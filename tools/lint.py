#!/usr/bin/env python3
"""Repo-specific lint rules the generic tools cannot express.

This is a small rule *framework*, not a pile of regexes: every rule is a
Rule subclass with an id, a name and a check() method; every rule has a
passing and a violating fixture under tests/lint_fixtures/ and
`lint.py --self-test` verifies each rule still fires on its fail fixture
and stays quiet on its pass fixture (run as ctest `lint_selftest`), so a
regex regression cannot silently disable a rule.

Rules (docs/CORRECTNESS.md):

  R1  no-libc-rand      std::rand / srand / rand() and time(nullptr)-style
                        seeding are forbidden outside src/common/rng.* —
                        every random stream must go through hero::Rng so runs
                        are seed-deterministic (tools/check_determinism.sh).
  R2  no-alloc-in-into  functions named *_into are the zero-allocation hot
                        path (docs/PERFORMANCE.md); their bodies must not
                        contain allocation-prone constructs (new, make_unique,
                        std::vector<...> locals, std::string construction,
                        push_back/emplace_back/reserve, malloc).
  R3  no-bare-printf    library code under src/ must not print to
                        stdout/stderr directly (printf/fprintf/std::cout/
                        std::cerr) — use common/logging.h. snprintf into a
                        buffer is fine. src/common/logging.cpp is the one
                        sanctioned sink.
  R4  pragma-once       every header under src/ starts its include guard
                        with #pragma once.
  R5  no-raw-thread     std::thread / std::jthread / std::async are forbidden
                        outside src/runtime — all concurrency goes through
                        runtime::ThreadPool so worker counts, RNG streams, and
                        shutdown stay centralized (docs/PARALLELISM.md).
  R6  no-growth-in-batch-step
                        BatchLaneWorld::step* bodies are the batch-first sim
                        hot path (docs/BATCHING.md); per-element container
                        growth (push_back/emplace_back) is forbidden there —
                        all step scratch is sized at construction, mirroring
                        R2's no-alloc contract for *_into kernels. The shared
                        sensing kernels ride the same contract:
                        SpatialIndex::build/query and
                        BatchLaneWorld::ensure_index run inside every step and
                        obs call (docs/PERFORMANCE.md, "Spatial neighbor
                        index").
  R7  no-raw-clock      std::chrono::steady_clock (and the other std::chrono
                        clocks) are forbidden outside src/obs — trainer and
                        rollout code times itself through obs::now_us() /
                        OBS_PHASE so phase attribution sees every clock read
                        and the determinism gate knows which fields are
                        wall-clock derived. src/common/logging.cpp (which
                        obs itself depends on) keeps its own timestamp clock.
  R8  no-raw-mutex      std::mutex / std::condition_variable / std::lock_guard
                        / std::unique_lock / std::scoped_lock (and friends)
                        are forbidden outside src/common/sync.h — all locking
                        goes through hero::Mutex / hero::MutexLock /
                        hero::CondVar, which carry the Clang thread-safety
                        capability annotations the -Wthread-safety CI gate
                        checks (docs/CORRECTNESS.md).
  R9  no-unordered-iteration-in-deterministic-paths
                        range-for over std::unordered_map / std::unordered_set
                        is forbidden in result-affecting code under src/hero,
                        src/algos, src/rl, src/sim — iteration order depends
                        on hashing/libstdc++ internals, leaks into results and
                        breaks the (seed, batch_envs) determinism key. Iterate a
                        sorted container (std::map) or sort keys first.

A violation on a line whose source carries a `lint-allow(Rn): reason`
comment is waived; the reason is mandatory by convention and reviewed like
any NOLINT.

Exit status: 0 when clean, 1 when any rule found violations (counts are
printed, never encoded in the exit code). Run:

    python3 tools/lint.py [--root REPO_ROOT]
    python3 tools/lint.py --self-test   # fixture round-trip for every rule
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

# ------------------------------------------------------------ framework ---

COMMENT_OR_STRING = re.compile(
    r"//.*?$|/\*.*?\*/|\"(?:[^\"\\]|\\.)*\"|'(?:[^'\\]|\\.)*'",
    re.DOTALL | re.MULTILINE,
)


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments/strings but preserves line structure for line numbers."""

    def repl(m: re.Match[str]) -> str:
        return re.sub(r"[^\n]", " ", m.group(0))

    return COMMENT_OR_STRING.sub(repl, text)


@dataclass
class SourceFile:
    """One file under analysis, addressed by its repo-relative posix path."""

    rel: str
    raw: str
    code: str = field(default="")
    raw_lines: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.code:
            self.code = strip_comments_and_strings(self.raw)
        self.raw_lines = self.raw.splitlines()

    def line_of(self, offset: int) -> int:
        return self.code.count("\n", 0, offset) + 1


@dataclass
class Violation:
    rel: str
    line: int  # 0 = whole-file finding
    what: str

    def __str__(self) -> str:
        loc = f"{self.rel}:{self.line}" if self.line else self.rel
        return f"{loc}: {self.what}"


class Rule:
    """One lint rule. Subclasses set rid/name/doc and implement check().

    collect() runs over every file before any check() call — rules that need
    cross-file state (R9's declared-name table) accumulate it in `ctx`, a
    per-run dict keyed by rule id.
    """

    rid: str = ""
    name: str = ""

    def collect(self, f: SourceFile, ctx: dict) -> None:
        del f, ctx

    def check(self, f: SourceFile, ctx: dict) -> list[Violation]:
        raise NotImplementedError


def function_bodies(text: str, def_re: re.Pattern[str]):
    """Yields (name, start_offset, body_text) per definition; group 1 = name."""
    for m in def_re.finditer(text):
        # Find the opening brace of the definition (skip declarations ending ';').
        i = m.end()
        while i < len(text) and text[i] not in "{;":
            i += 1
        if i >= len(text) or text[i] == ";":
            continue
        start = i
        depth = 1
        i += 1
        while i < len(text) and depth:
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
            i += 1
        yield m.group(1), start, text[start:i]


def pattern_rule_hits(f: SourceFile, patterns) -> list[Violation]:
    out = []
    for pat, what in patterns:
        for m in pat.finditer(f.code):
            out.append(Violation(f.rel, f.line_of(m.start()), what))
    return out


# ---------------------------------------------------------------- rules ---


class NoLibcRand(Rule):
    rid, name = "R1", "no-libc-rand"
    PATTERNS = [
        (re.compile(r"\bstd::rand\b"), "std::rand"),
        (re.compile(r"(?<!\w)(?:std::)?srand\s*\("), "srand()"),
        (re.compile(r"(?<![\w:.])rand\s*\(\s*\)"), "rand()"),
        (re.compile(r"\btime\s*\(\s*(nullptr|NULL|0)\s*\)"), "time(nullptr) seeding"),
    ]
    ALLOWED = {"src/common/rng.h", "src/common/rng.cpp"}

    def check(self, f: SourceFile, ctx: dict) -> list[Violation]:
        if f.rel in self.ALLOWED:
            return []
        return pattern_rule_hits(f, self.PATTERNS)


class NoAllocInInto(Rule):
    rid, name = "R2", "no-alloc-in-into"
    PATTERNS = [
        (re.compile(r"\bnew\b(?!\w)"), "operator new"),
        (re.compile(r"\bmake_unique\b"), "make_unique"),
        (re.compile(r"\bmake_shared\b"), "make_shared"),
        (re.compile(r"\bmalloc\s*\("), "malloc"),
        (re.compile(r"\bstd::vector\s*<"), "std::vector local"),
        (re.compile(r"\bstd::string\b(?!\s*[&*])"), "std::string construction"),
        (re.compile(r"\.(push_back|emplace_back|reserve)\s*\("), "container growth"),
    ]
    # Just name-then-paren: function_bodies() skips matches that reach ';'
    # before '{', which filters out declarations and expression-statement
    # call sites (a trailing-return or init-list between ')' and '{' would
    # be mis-scoped, but the codebase doesn't use those on _into kernels).
    INTO_DEF = re.compile(r"\b(\w+_into)\s*\(")

    def check(self, f: SourceFile, ctx: dict) -> list[Violation]:
        out = []
        for fn, start, body in function_bodies(f.code, self.INTO_DEF):
            for pat, what in self.PATTERNS:
                for m in pat.finditer(body):
                    out.append(
                        Violation(f.rel, f.line_of(start + m.start()),
                                  f"{what} inside {fn}()"))
        return out


class NoBarePrintf(Rule):
    rid, name = "R3", "no-bare-printf"
    PATTERNS = [
        (re.compile(r"(?<![\w:])(?:std::)?printf\s*\("), "printf"),
        (re.compile(r"(?<![\w:])(?:std::)?fprintf\s*\("), "fprintf"),
        (re.compile(r"\bstd::cout\b"), "std::cout"),
        (re.compile(r"\bstd::cerr\b"), "std::cerr"),
    ]
    ALLOWED = {"src/common/logging.cpp"}

    def check(self, f: SourceFile, ctx: dict) -> list[Violation]:
        if f.rel in self.ALLOWED:
            return []
        out = []
        for pat, what in self.PATTERNS:
            for m in pat.finditer(f.code):
                # snprintf/vsnprintf are buffer formatting, not output.
                if "snprintf" in f.code[max(0, m.start() - 2):m.end()]:
                    continue
                out.append(Violation(f.rel, f.line_of(m.start()), what))
        return out


class PragmaOnce(Rule):
    rid, name = "R4", "pragma-once"

    def check(self, f: SourceFile, ctx: dict) -> list[Violation]:
        if not f.rel.endswith(".h"):
            return []
        if "#pragma once" in f.raw:
            return []
        return [Violation(f.rel, 0, "missing #pragma once")]


class NoRawThread(Rule):
    rid, name = "R5", "no-raw-thread"
    PATTERNS = [
        (re.compile(r"\bstd::thread\b"), "std::thread"),
        (re.compile(r"\bstd::jthread\b"), "std::jthread"),
        (re.compile(r"\bstd::async\b"), "std::async"),
    ]
    ALLOWED_PREFIXES = ("src/runtime/",)

    def check(self, f: SourceFile, ctx: dict) -> list[Violation]:
        if f.rel.startswith(self.ALLOWED_PREFIXES):
            return []
        return pattern_rule_hits(f, self.PATTERNS)


class NoGrowthInBatchStep(Rule):
    rid, name = "R6", "no-growth-in-batch-step"
    PATTERNS = [
        (re.compile(r"\.(push_back|emplace_back)\s*\("), "per-element growth"),
    ]
    # step* phases plus the shared sensing kernels that run inside them:
    # the per-step index rebuild and window queries must stay growth-free
    # too.
    STEP_DEF = re.compile(
        r"\b((?:BatchLaneWorld::(?:step\w*|ensure_index)|"
        r"SpatialIndex::(?:build|query\w*)))\s*\(")

    def check(self, f: SourceFile, ctx: dict) -> list[Violation]:
        out = []
        for fn, start, body in function_bodies(f.code, self.STEP_DEF):
            for pat, what in self.PATTERNS:
                for m in pat.finditer(body):
                    out.append(
                        Violation(f.rel, f.line_of(start + m.start()),
                                  f"{what} inside {fn}()"))
        return out


class NoRawClock(Rule):
    rid, name = "R7", "no-raw-clock"
    PATTERNS = [
        (re.compile(
            r"\bstd::chrono::(steady_clock|high_resolution_clock|system_clock)\b"),
         "std::chrono clock"),
    ]
    ALLOWED_PREFIXES = ("src/obs/", "src/common/")

    def check(self, f: SourceFile, ctx: dict) -> list[Violation]:
        if f.rel.startswith(self.ALLOWED_PREFIXES):
            return []
        return pattern_rule_hits(f, self.PATTERNS)


class NoRawMutex(Rule):
    rid, name = "R8", "no-raw-mutex"
    PATTERNS = [
        (re.compile(r"\bstd::(recursive_|timed_|recursive_timed_|shared_)?mutex\b"),
         "std::mutex family"),
        (re.compile(r"\bstd::condition_variable(_any)?\b"), "std::condition_variable"),
        (re.compile(r"\bstd::lock_guard\b"), "std::lock_guard"),
        (re.compile(r"\bstd::unique_lock\b"), "std::unique_lock"),
        (re.compile(r"\bstd::scoped_lock\b"), "std::scoped_lock"),
        (re.compile(r"\bstd::shared_lock\b"), "std::shared_lock"),
    ]
    # The wrappers themselves are built on the std primitives.
    ALLOWED = {"src/common/sync.h"}

    def check(self, f: SourceFile, ctx: dict) -> list[Violation]:
        if f.rel in self.ALLOWED:
            return []
        out = pattern_rule_hits(f, self.PATTERNS)
        for v in out:
            v.what += (" — use hero::Mutex / hero::MutexLock / hero::CondVar "
                       "(common/sync.h) so the thread-safety analysis sees it")
        return out


class NoUnorderedIteration(Rule):
    rid, name = "R9", "no-unordered-iteration-in-deterministic-paths"
    # Result-affecting subsystems keyed by the (seed, batch_envs) determinism
    # contract. obs/, viz/, serve/ and tooling may iterate unordered
    # containers (their output is either unordered-by-design or sorted at
    # the exporter).
    DET_PREFIXES = ("src/hero/", "src/algos/", "src/rl/", "src/sim/")
    DECL = re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<")
    RANGE_FOR = re.compile(r"\bfor\s*\(")

    @staticmethod
    def _match_angle(text: str, start: int) -> int:
        """Offset just past the matching '>' for the '<' at `start`."""
        depth = 0
        i = start
        while i < len(text):
            if text[i] == "<":
                depth += 1
            elif text[i] == ">":
                depth -= 1
                if depth == 0:
                    return i + 1
            elif text[i] in ";{}":
                break  # malformed / macro soup: bail
            i += 1
        return -1

    def _declared_names(self, f: SourceFile):
        """Yields (name, line) for identifiers declared with an unordered type."""
        for m in self.DECL.finditer(f.code):
            open_angle = f.code.index("<", m.start())
            end = self._match_angle(f.code, open_angle)
            if end < 0:
                continue
            nm = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*[;={(,)]", f.code[end:])
            if nm:
                yield nm.group(1), f.line_of(m.start())

    def collect(self, f: SourceFile, ctx: dict) -> None:
        # Cross-file table: members declared unordered in a header under a
        # deterministic path are flagged when iterated from the matching .cpp.
        if not f.rel.startswith(self.DET_PREFIXES):
            return
        names = ctx.setdefault(self.rid, set())
        for name, _ in self._declared_names(f):
            names.add(name)

    def check(self, f: SourceFile, ctx: dict) -> list[Violation]:
        if not f.rel.startswith(self.DET_PREFIXES):
            return []
        names: set = ctx.get(self.rid, set())
        out = []
        for m in self.RANGE_FOR.finditer(f.code):
            # Grab the parenthesized head, then the expression after the
            # first top-level ':' (absent for classic three-clause fors).
            depth, i = 0, m.end() - 1
            colon = -1
            while i < len(f.code):
                c = f.code[i]
                if c == "(":
                    depth += 1
                elif c == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif c == ":" and depth == 1 and f.code[i - 1] != ":" \
                        and f.code[i + 1:i + 2] != ":":
                    colon = i
                i += 1
            if colon < 0 or i >= len(f.code):
                continue
            expr = f.code[colon + 1:i]
            direct = "unordered_map" in expr or "unordered_set" in expr
            by_name = any(
                re.search(rf"\b{re.escape(n)}\b", expr) for n in names)
            if direct or by_name:
                out.append(Violation(
                    f.rel, f.line_of(m.start()),
                    "range-for over an unordered container in a "
                    "deterministic path — iteration order leaks into results; "
                    "iterate a sorted view instead"))
        return out


RULES: list[Rule] = [
    NoLibcRand(), NoAllocInInto(), NoBarePrintf(), PragmaOnce(),
    NoRawThread(), NoGrowthInBatchStep(), NoRawClock(), NoRawMutex(),
    NoUnorderedIteration(),
]

ALLOW_RE = re.compile(r"lint-allow\((R\d+)\)")


def apply_waivers(f: SourceFile, violations: list[Violation], rid: str):
    """Drops violations whose raw source line carries lint-allow(<rid>)."""
    kept = []
    for v in violations:
        if 1 <= v.line <= len(f.raw_lines):
            allows = set(ALLOW_RE.findall(f.raw_lines[v.line - 1]))
            if rid in allows:
                continue
        kept.append(v)
    return kept


def scan_files(root: Path):
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if path.suffix not in {".h", ".cpp"}:
            continue
        rel = path.relative_to(root).as_posix()
        yield SourceFile(rel, path.read_text(encoding="utf-8"))


def run_lint(root: Path) -> int:
    files = list(scan_files(root))
    ctx: dict = {}
    for rule in RULES:
        for f in files:
            rule.collect(f, ctx)

    total = 0
    failed_rules = 0
    for rule in RULES:
        violations = []
        for f in files:
            violations += apply_waivers(f, rule.check(f, ctx), rule.rid)
        if not violations:
            print(f"ok   {rule.rid} {rule.name}")
            continue
        failed_rules += 1
        total += len(violations)
        print(f"FAIL {rule.rid} {rule.name} ({len(violations)} violation(s)):")
        for v in violations:
            print(f"     {v}")
    print(f"lint: {len(RULES)} rules, {failed_rules} failed, "
          f"{total} violation(s)")
    # Exit status is strictly 0/1 — counts above; an exit code equal to the
    # violation count would wrap mod 256 and could report success.
    return 0 if total == 0 else 1


# ------------------------------------------------------------- self-test ---

FIXTURE_PATH_RE = re.compile(r"^//\s*lint-fixture-path:\s*(\S+)\s*$", re.MULTILINE)


def load_fixture(path: Path) -> SourceFile:
    raw = path.read_text(encoding="utf-8")
    m = FIXTURE_PATH_RE.search(raw)
    if not m:
        raise SystemExit(
            f"self-test: {path} lacks a '// lint-fixture-path: src/...' header")
    return SourceFile(m.group(1), raw)


def run_rule(rule: Rule, f: SourceFile) -> list[Violation]:
    ctx: dict = {}
    rule.collect(f, ctx)
    return apply_waivers(f, rule.check(f, ctx), rule.rid)


def run_self_test(fixture_dir: Path) -> int:
    """Every rule must stay quiet on its *_pass fixture and fire on *_fail."""
    ok = True
    for rule in RULES:
        cases = sorted(fixture_dir.glob(f"{rule.rid}_*"))
        if not any("pass" in c.stem for c in cases) or \
           not any("fail" in c.stem for c in cases):
            print(f"SELF-TEST FAIL {rule.rid}: needs both a *_pass and a "
                  f"*_fail fixture in {fixture_dir}")
            ok = False
            continue
        for case in cases:
            f = load_fixture(case)
            violations = run_rule(rule, f)
            want_clean = "pass" in case.stem
            if want_clean and violations:
                print(f"SELF-TEST FAIL {rule.rid} {case.name}: expected clean, got:")
                for v in violations:
                    print(f"     {v}")
                ok = False
            elif not want_clean and not violations:
                print(f"SELF-TEST FAIL {rule.rid} {case.name}: expected >=1 "
                      f"violation, rule stayed quiet (regex regression?)")
                ok = False
            else:
                verdict = "clean" if want_clean else f"{len(violations)} hit(s)"
                print(f"ok   {rule.rid} {case.name}: {verdict}")
    print("self-test:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--self-test", action="store_true",
                    help="run every rule against its tests/lint_fixtures/ pair")
    args = ap.parse_args()
    if args.self_test:
        return run_self_test(args.root / "tests" / "lint_fixtures")
    return run_lint(args.root)


if __name__ == "__main__":
    sys.exit(main())
