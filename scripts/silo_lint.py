#!/usr/bin/env python3
"""silo-lint: repo-local determinism and hot-path rules.

The simulator's results are only trustworthy if a run is a pure function of
its configuration and seeds. These checks catch the ways that property has
actually been lost in discrete-event simulators: wall-clock reads, unseeded
randomness, hash-order iteration, and floating-point accumulation of
simulated time. A couple of hot-path hygiene rules ride along.

Usage:
  scripts/silo_lint.py              # lint the repo (src/ bench/ tests/ examples/)
  scripts/silo_lint.py --list-rules # print the rule catalog (id + summary)
  scripts/silo_lint.py --self-test  # run the embedded positive/negative cases

Suppression: append `// silo-lint: allow(<rule-id>)` to the offending line
(or place it alone on the line above). Every suppression is a reviewed,
documented exception - the comment is greppable.

Exit status: 0 clean, 1 findings (or self-test failure), 2 usage error.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from silo_analyze.lexer import split_line_comment  # noqa: E402

REPO_DIRS = ["src", "bench", "tests", "examples"]
EXTENSIONS = {".h", ".cc", ".cpp", ".hpp"}

ALLOW_RE = re.compile(r"//\s*silo-lint:\s*allow\(([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)\)")


class Rule:
    """One lint rule: a set of (regex, scope-prefixes[, exempt-prefixes])
    patterns.

    A pattern only applies to files whose repo-relative path starts with one
    of its scope prefixes; `("",)` means everywhere. An optional third
    element lists exempt prefixes carved *out* of the scope — narrower than
    FILE_ALLOWLIST (per pattern, not per rule) so e.g. `src/par/` may use
    threading includes while its `<ctime>` ban stays live. `self_test` maps
    synthetic repo paths to (line, should_flag) cases.
    """

    def __init__(self, rule_id, summary, why, patterns, self_test):
        self.id = rule_id
        self.summary = summary
        self.why = why
        self.patterns = [(re.compile(p[0]), p[1], p[2] if len(p) > 2 else ())
                         for p in patterns]
        self.self_test = self_test

    def applies(self, path: str, line: str) -> bool:
        for rx, scopes, exempt in self.patterns:
            if not any(path.startswith(s) for s in scopes):
                continue
            if any(path.startswith(e) for e in exempt):
                continue
            if rx.search(line):
                return True
        return False


RULES = [
    Rule(
        "wall-clock",
        "no wall-clock reads in simulation or test code",
        "A simulated run must be a pure function of config + seeds; reading "
        "host time makes traces unreproducible. steady_clock is additionally "
        "banned in src/ (bench harnesses may use it to time the simulator "
        "itself, which is reported as host perf, never fed back into results).",
        patterns=[
            (r"std::chrono::system_clock", ("",)),
            (r"\bgettimeofday\s*\(", ("",)),
            (r"\bclock_gettime\s*\(", ("",)),
            (r"(?<![\w.:])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)", ("",)),
            (r"std::chrono::steady_clock", ("src/",)),
        ],
        self_test=[
            ("src/sim/x.cc", "auto t = std::chrono::system_clock::now();", True),
            ("src/sim/x.cc", "auto t = std::chrono::steady_clock::now();", True),
            ("bench/x.cc", "auto t = std::chrono::steady_clock::now();", False),
            ("tests/x.cc", "srand(time(nullptr));", True),
            ("src/sim/x.cc", "TimeNs transmission_time(Bytes b);", False),
            ("src/sim/x.cc", "const TimeNs t = ev.time(); ", False),
        ],
    ),
    Rule(
        "unseeded-random",
        "no std::random_device, rand(), or srand()",
        "Every random stream must come from the repo's seeded Rng "
        "(src/util/rng.h) so any run can be replayed from its recorded seed. "
        "random_device and the C PRNG have process-global, unseedable state.",
        patterns=[
            (r"std::random_device", ("",)),
            (r"\bsrand\s*\(", ("",)),
            (r"(?:std::|[^\w.])rand\s*\(\s*\)", ("",)),
        ],
        self_test=[
            ("src/util/x.cc", "std::random_device rd;", True),
            ("tests/x.cc", "int r = rand();", True),
            ("bench/x.cc", "srand(42);", True),
            ("src/sim/x.cc", "rng.uniform_int(0, 9);", False),
            ("src/sim/x.cc", "grand_total += 1;", False),
            ("src/sim/x.cc", "x = operand();", False),
            # `//` inside a string literal is not a comment: code after it
            # must still be linted...
            ("src/sim/x.cc", 'log("see https://x.test"); srand(42);', True),
            # ...while a real trailing comment is still stripped.
            ("src/sim/x.cc", "int x = 0;  // srand(1) only in comment", False),
        ],
    ),
    Rule(
        "unordered-container",
        "no std::unordered_map / std::unordered_set in src/",
        "Iteration order of hash containers depends on pointer values and "
        "library version; any trace, checksum, or allocation decision derived "
        "from it silently breaks run-to-run determinism. Use std::map or a "
        "sorted vector (the keyed populations here are small).",
        patterns=[
            (r"\bstd::unordered_(?:map|set|multimap|multiset)\b", ("src/",)),
            (r"#\s*include\s*<unordered_(?:map|set)>", ("src/",)),
        ],
        self_test=[
            ("src/sim/x.h", "std::unordered_map<int, int> m;", True),
            ("src/sim/x.h", "#include <unordered_map>", True),
            ("tests/x.cc", "std::unordered_map<int, int> m;", False),
            ("src/sim/x.h", "std::map<int, int> m;", False),
            # Anti-entropy sweeps iterate per-server state; a hash map there
            # would randomize repair order (and thus every rng draw the
            # repairs make), so the channel keeps id-indexed arrays.
            ("src/sim/control_channel.h",
             "std::unordered_map<int, PacerConfigTable> shadow_;", True),
            ("src/sim/control_channel.h",
             "std::vector<Agent> agents_;  ///< by server id", False),
        ],
    ),
    Rule(
        "raw-new-delete",
        "no raw new/delete in sim hot paths (src/sim/, src/pacer/)",
        "The per-packet path must stay allocation-free (PacketPool, recycled "
        "slots); raw new/delete both allocates and invites lifetime bugs the "
        "pool's checked handles exist to prevent. Cold setup code uses "
        "std::make_unique, which is exempt.",
        patterns=[
            (r"(?:^|[^\w_])new\s+[A-Za-z_:][\w:<>, ]*[({]", ("src/sim/", "src/pacer/")),
            (r"(?:^|[^\w_])delete\s*(?:\[\s*\])?\s+?[A-Za-z_*(]", ("src/sim/", "src/pacer/")),
        ],
        self_test=[
            ("src/sim/x.cc", "Packet* p = new Packet();", True),
            ("src/sim/x.cc", "delete p;", True),
            ("src/sim/x.cc", "delete[] arr;", True),
            ("src/sim/x.cc", "auto p = std::make_unique<Packet>();", False),
            ("src/sim/x.cc", "TcpFlow(const TcpFlow&) = delete;", False),
            ("src/core/x.cc", "Packet* p = new Packet();", False),
            ("src/sim/x.cc", "renewed = true;", False),
            ("src/sim/x.cc", "// new rcv_next_ is re-ACKed, not delivered", False),
        ],
    ),
    Rule(
        "float-time",
        "no float/double variables holding simulated time",
        "Accumulating simulated time in floating point loses nanoseconds as "
        "magnitudes grow, so event order drifts with run length. Simulated "
        "time is TimeNs (int64) end to end; doubles touching time must be "
        "transient conversions at the edges, never named time-carrying state.",
        patterns=[
            (r"\b(?:float|double)\s+\w*(?:time_ns|now_ns|clock_ns|_deadline_ns)\b", ("",)),
            (r"\b(?:float|double)\s+(?:now|clock)_\w*", ("",)),
            (r"std::chrono::duration<\s*(?:float|double)", ("src/",)),
        ],
        self_test=[
            ("src/sim/x.h", "double now_ns = 0;", True),
            ("src/sim/x.h", "float sim_time_ns;", True),
            ("src/sim/x.h", "double clock_ns_;", True),
            ("src/sim/x.h", "std::chrono::duration<double> d;", True),
            ("bench/x.cc", "std::chrono::duration<double>(t1 - t0).count();", False),
            ("src/pacer/x.h", "const double wait_ns = deficit * 8e9 / r;", False),
            ("src/sim/x.h", "TimeNs now_ {};", False),
        ],
    ),
    Rule(
        "banned-include",
        "no <ctime>, <thread>, <mutex>, <condition_variable>, <future> "
        "(threading carve-out: src/par/ only); <random> only inside "
        "src/util/rng.h",
        "The simulator core is single-threaded and deterministic by design: "
        "thread primitives would introduce scheduling nondeterminism, <ctime> "
        "is wall clock, and raw <random> bypasses the seeded Rng wrapper that "
        "makes every stream replayable. The one sanctioned exception is "
        "src/par/ — the conservative-window island executor, whose whole job "
        "is to confine threads behind barrier-separated phases; protocol code "
        "everywhere else in src/ stays thread-free so islands can run it "
        "sequentially. Wall clock stays banned even there.",
        patterns=[
            (r"#\s*include\s*<(?:thread|mutex|condition_variable|future)>",
             ("",), ("src/par/",)),
            (r"#\s*include\s*<ctime>", ("",)),
            (r"#\s*include\s*<random>", ("src/",)),
        ],
        self_test=[
            ("src/sim/x.cc", "#include <thread>", True),
            ("src/sim/x.cc", "#include <ctime>", True),
            ("src/core/x.cc", "#include <random>", True),
            ("src/util/rng.h", "#include <random>", False),  # via allowlist below
            ("src/sim/x.cc", "#include <functional>", False),
            ("tests/x.cc", "#include <random>", False),
            # src/par/ carve-out: threading primitives are the sync layer's
            # reason to exist; everything else stays banned there too.
            ("src/par/thread_executor.h", "#include <thread>", False),
            ("src/par/thread_executor.cc", "#include <mutex>", False),
            ("src/par/thread_executor.cc", "#include <condition_variable>", False),
            ("src/par/thread_executor.cc", "#include <ctime>", True),
            ("src/par/thread_executor.cc", "#include <random>", True),
            # The carve-out is exactly src/par/ — not sim, not bench.
            ("src/sim/parallel.cc", "#include <mutex>", True),
            ("bench/bench_event_engine.cc", "#include <thread>", True),
        ],
    ),
]

# Files exempt from specific rules by design, equivalent to an allow()
# comment on every matching line. Keep this list short and justified:
#   - src/util/rng.h IS the seeded wrapper around <random>.
FILE_ALLOWLIST = {
    "src/util/rng.h": {"banned-include"},
}


def allowed_ids(line: str) -> set[str]:
    m = ALLOW_RE.search(line)
    if not m:
        return set()
    return {part.strip() for part in m.group(1).split(",")}


def lint_lines(path: str, lines: list[str]):
    """Yield (line_number, rule, text) findings for one file."""
    prev_allow: set[str] = set()
    for ln, line in enumerate(lines, start=1):
        here_allow = allowed_ids(line) | prev_allow
        # A line that is only an allow-comment arms suppression for the next line.
        prev_allow = allowed_ids(line) if line.strip().startswith("//") else set()
        # Rules never match comments — but a `//` inside a string literal
        # (a URL, a path) is not a comment; the old `line.split("//", 1)`
        # truncated there and hid anything after it from every rule.
        stripped = split_line_comment(line)[0]
        for rule in RULES:
            if rule.id in here_allow or rule.id in FILE_ALLOWLIST.get(path, set()):
                continue
            if rule.applies(path, stripped):
                yield ln, rule, line.rstrip()


def run_lint(root: Path) -> int:
    findings = 0
    for top in REPO_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for f in sorted(base.rglob("*")):
            if f.suffix not in EXTENSIONS or not f.is_file():
                continue
            rel = f.relative_to(root).as_posix()
            lines = f.read_text(errors="replace").splitlines()
            for ln, rule, text in lint_lines(rel, lines):
                print(f"{rel}:{ln}: [{rule.id}] {rule.summary}")
                print(f"    {text.strip()}")
                findings += 1
    if findings:
        print(f"\nsilo-lint: {findings} finding(s). Suppress a reviewed "
              f"exception with '// silo-lint: allow(<rule>)'.")
        return 1
    print("silo-lint: clean")
    return 0


def run_self_test() -> int:
    failures = 0
    for rule in RULES:
        for path, line, should_flag in rule.self_test:
            flagged = any(
                r.id == rule.id
                for _, r, _ in lint_lines(path, [line])
            )
            if flagged != should_flag:
                print(f"SELF-TEST FAIL [{rule.id}] {path}: {line!r} "
                      f"expected flag={should_flag}, got {flagged}")
                failures += 1
        # The escape hatch must suppress every rule's positive cases.
        for path, line, should_flag in rule.self_test:
            if not should_flag:
                continue
            esc = line + f"  // silo-lint: allow({rule.id})"
            if any(r.id == rule.id for _, r, _ in lint_lines(path, [esc])):
                print(f"SELF-TEST FAIL [{rule.id}] allow() did not suppress: {esc!r}")
                failures += 1
    n = sum(len(r.self_test) for r in RULES)
    if failures:
        print(f"silo-lint self-test: {failures} failure(s) across {n} cases")
        return 1
    print(f"silo-lint self-test: {n} cases ok "
          f"(+{sum(1 for r in RULES for c in r.self_test if c[2])} suppression checks)")
    return 0


def list_rules() -> int:
    for rule in RULES:
        print(f"{rule.id}: {rule.summary}")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(__file__).resolve().parent.parent
    if argv == ["--self-test"]:
        return run_self_test()
    if argv == ["--list-rules"]:
        return list_rules()
    if argv:
        print(f"unknown argument: {argv[0]}", file=sys.stderr)
        return 2
    return run_lint(root)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
