"""Lint pass — per-line determinism and hot-path rules.

The simulator's results are only trustworthy if a run is a pure function of
its configuration and seeds. These rules catch the ways that property has
actually been lost in discrete-event simulators: wall-clock reads, unseeded
randomness, hash-order iteration, and floating-point accumulation of
simulated time. A couple of hot-path hygiene rules ride along.

Unlike the structural passes, this one reads src/, bench/, tests/ and
examples/ one line at a time. Rules never match comments, and comment
stripping is string-aware (lexer.split_line_comment): a `//` inside a
string literal — a URL, a path — does not hide the rest of the line.
"""

from __future__ import annotations

import re

from .base import CXX_DIRS, Finding, Repo
from .lexer import split_line_comment


class Rule:
    """One lint rule: a set of (regex, scope-prefixes[, exempt-prefixes])
    patterns.

    A pattern only applies to files whose repo-relative path starts with one
    of its scope prefixes; `("",)` means everywhere. An optional third
    element lists exempt prefixes carved *out* of the scope — per pattern,
    not per rule, so e.g. `src/par/` may use threading includes while its
    `<ctime>` ban stays live.
    """

    def __init__(self, rule_id, summary, patterns):
        self.id = rule_id
        self.summary = summary
        self.patterns = [(re.compile(p[0]), p[1], p[2] if len(p) > 2 else ())
                         for p in patterns]

    def applies(self, path: str, line: str) -> bool:
        for rx, scopes, exempt in self.patterns:
            if not any(path.startswith(s) for s in scopes):
                continue
            if any(path.startswith(e) for e in exempt):
                continue
            if rx.search(line):
                return True
        return False


LINT_RULES = [
    # A simulated run must be a pure function of config + seeds; reading
    # host time makes traces unreproducible. steady_clock is additionally
    # banned in src/ (bench harnesses may use it to time the simulator
    # itself, which is reported as host perf, never fed back into results).
    Rule("wall-clock", "no wall-clock reads in simulation or test code", [
        (r"std::chrono::system_clock", ("",)),
        (r"\bgettimeofday\s*\(", ("",)),
        (r"\bclock_gettime\s*\(", ("",)),
        (r"(?<![\w.:])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)", ("",)),
        (r"std::chrono::steady_clock", ("src/",)),
    ]),
    # Every random stream must come from the repo's seeded Rng
    # (src/util/rng.h) so any run can be replayed from its recorded seed.
    # random_device and the C PRNG have process-global, unseedable state.
    Rule("unseeded-random", "no std::random_device, rand(), or srand()", [
        (r"std::random_device", ("",)),
        (r"\bsrand\s*\(", ("",)),
        (r"(?:std::|[^\w.])rand\s*\(\s*\)", ("",)),
    ]),
    # Iteration order of hash containers depends on pointer values and
    # library version; any trace, checksum, or allocation decision derived
    # from it silently breaks run-to-run determinism. Use std::map or a
    # sorted vector (the keyed populations here are small).
    Rule("unordered-container",
         "no std::unordered_map / std::unordered_set in src/", [
             (r"\bstd::unordered_(?:map|set|multimap|multiset)\b", ("src/",)),
             (r"#\s*include\s*<unordered_(?:map|set)>", ("src/",)),
         ]),
    # The per-packet path must stay allocation-free (PacketPool, recycled
    # slots); raw new/delete both allocates and invites lifetime bugs the
    # pool's checked handles exist to prevent. Cold setup code uses
    # std::make_unique, which is exempt.
    Rule("raw-new-delete",
         "no raw new/delete in sim hot paths (src/sim/, src/pacer/)", [
             (r"(?:^|[^\w_])new\s+[A-Za-z_:][\w:<>, ]*[({]",
              ("src/sim/", "src/pacer/")),
             (r"(?:^|[^\w_])delete\s*(?:\[\s*\])?\s+?[A-Za-z_*(]",
              ("src/sim/", "src/pacer/")),
         ]),
    # Accumulating simulated time in floating point loses nanoseconds as
    # magnitudes grow, so event order drifts with run length. Simulated
    # time is TimeNs (int64) end to end; doubles touching time must be
    # transient conversions at the edges, never named time-carrying state.
    Rule("float-time", "no float/double variables holding simulated time", [
        (r"\b(?:float|double)\s+\w*(?:time_ns|now_ns|clock_ns|_deadline_ns)\b",
         ("",)),
        (r"\b(?:float|double)\s+(?:now|clock)_\w*", ("",)),
        (r"std::chrono::duration<\s*(?:float|double)", ("src/",)),
    ]),
    # The simulator core is single-threaded and deterministic by design:
    # thread primitives would introduce scheduling nondeterminism, <ctime>
    # is wall clock, and raw <random> bypasses the seeded Rng wrapper that
    # makes every stream replayable. The one sanctioned exception is
    # src/par/ — the conservative-window island executor, whose whole job
    # is to confine threads behind barrier-separated phases; protocol code
    # everywhere else in src/ stays thread-free so islands can run it
    # sequentially. Wall clock stays banned even there. src/util/rng.h,
    # the seeded wrapper itself, includes <random> under an allow comment.
    Rule("banned-include",
         "no <ctime>, <thread>, <mutex>, <condition_variable>, <future> "
         "(threading carve-out: src/par/ only); <random> only inside "
         "src/util/rng.h", [
             (r"#\s*include\s*<(?:thread|mutex|condition_variable|future)>",
              ("",), ("src/par/",)),
             (r"#\s*include\s*<ctime>", ("",)),
             (r"#\s*include\s*<random>", ("src/",)),
         ]),
]

RULES = [(rule.id, rule.summary) for rule in LINT_RULES]


def lint_file(path: str, text: str) -> list[Finding]:
    """Every rule match in one file; suppression is Repo.apply_allows'."""
    findings = []
    for ln, line in enumerate(text.splitlines(), start=1):
        code = split_line_comment(line)[0]
        for rule in LINT_RULES:
            if rule.applies(path, code):
                findings.append(Finding(path, ln, rule.id,
                                        f"{rule.summary}: {line.strip()}"))
    return findings


def run(repo: Repo) -> list[Finding]:
    findings = []
    for path in repo.cxx_files(CXX_DIRS):
        findings.extend(lint_file(path, repo.files[path]))
    return findings
