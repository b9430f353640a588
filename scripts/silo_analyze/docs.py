"""Docs pass — the markdown must agree with the code it describes.

Three checks, each exact in both directions where there are two sides:

  - metrics: every metric registered in src/ is catalogued in
    docs/OBSERVABILITY.md, and every catalogued metric is registered. The
    src side is every *string literal* matching the dotted metric shape
    `[a-z_]+(\\.[a-z_]+)+` — a name surviving only in a comment does not
    count as a registration. The doc side is every catalog row whose first
    column is a backticked dotted name. Because the comparison is an exact
    set difference, a metric family vanishing from either side is caught
    without per-family checks.
  - links: every relative markdown link in the root and docs/ markdown
    names a file or directory that exists, resolved against the linking
    file's directory. Anchors are stripped; absolute URLs, mailto: and
    targets with a space or `&` (C++ lambda captures in code blocks, such
    as `[&](const auto& f)`) are skipped.
  - rules: the rule catalog `--list-rules` prints and the DESIGN.md rule
    table (rows whose first column is a backticked rule id) name the same
    rules, so neither the docs nor the analyzer can grow or drop a rule
    silently.

Rules: `metric-undocumented` (anchored at the registering literal),
`metric-unregistered` (at the catalog row), `broken-link` (at the link),
`rule-undocumented` (at DESIGN.md's first rule row) and `rule-unknown`
(at the row naming it).
"""

from __future__ import annotations

import posixpath
import re

from . import lexer
from .base import Finding, Repo

RULE_UNDOC = "metric-undocumented"
RULE_UNREG = "metric-unregistered"
RULE_LINK = "broken-link"
RULE_UNDOC_RULE = "rule-undocumented"
RULE_UNKNOWN_RULE = "rule-unknown"

RULES = [
    (RULE_UNDOC, "metric registered in src/ but missing from the "
                 "docs/OBSERVABILITY.md catalog"),
    (RULE_UNREG, "metric catalogued in docs/OBSERVABILITY.md but "
                 "registered nowhere in src/"),
    (RULE_LINK, "relative markdown link to a file or directory that does "
                "not exist"),
    (RULE_UNDOC_RULE, "analyzer rule missing from the DESIGN.md rule "
                      "table"),
    (RULE_UNKNOWN_RULE, "DESIGN.md rule table row naming a rule the "
                        "analyzer does not have"),
]

DOC_PATH = "docs/OBSERVABILITY.md"
DESIGN_PATH = "DESIGN.md"

_METRIC_SHAPE = re.compile(r"^[a-z_]+(\.[a-z_]+)+$")
_DOC_ROW = re.compile(r"^\| `([a-z_]+(?:\.[a-z_]+)+)` \|")
_RULE_ROW = re.compile(r"^\| `([a-z-]+)` \|")
_LINK = re.compile(r"\]\(([^)]+)\)")
_SKIP_LINK = re.compile(r"^(?:https?://|mailto:)|[ &]")


def src_metrics(repo: Repo) -> dict[str, tuple[str, int]]:
    """metric name -> (path, line) of its first registering literal."""
    out: dict[str, tuple[str, int]] = {}
    for path in repo.src_files():
        for tok in lexer.string_literals(repo.files[path]):
            if _METRIC_SHAPE.match(tok.value) and tok.value not in out:
                out[tok.value] = (path, tok.line)
    return out


def table_rows(repo: Repo, path: str, row: re.Pattern) -> dict[str, int]:
    """First-column name -> line, for every row of `path` matching `row`."""
    out: dict[str, int] = {}
    for ln, line in enumerate(repo.files.get(path, "").splitlines(), start=1):
        m = row.match(line)
        if m and m.group(1) not in out:
            out[m.group(1)] = ln
    return out


def check_metrics(repo: Repo) -> list[Finding]:
    findings: list[Finding] = []
    registered = src_metrics(repo)
    documented = table_rows(repo, DOC_PATH, _DOC_ROW)
    for name in sorted(registered.keys() - documented.keys()):
        path, line = registered[name]
        findings.append(Finding(
            path, line, RULE_UNDOC,
            f"metric '{name}' is registered here but missing from the "
            f"{DOC_PATH} catalog", symbol=name))
    for name in sorted(documented.keys() - registered.keys()):
        findings.append(Finding(
            DOC_PATH, documented[name], RULE_UNREG,
            f"metric '{name}' is catalogued but no string literal in src/ "
            f"registers it", symbol=name))
    return findings


def check_links(repo: Repo) -> list[Finding]:
    findings: list[Finding] = []
    for path in repo.markdown_files():
        base = posixpath.dirname(path)
        for ln, line in enumerate(repo.files[path].splitlines(), start=1):
            for m in _LINK.finditer(line):
                target = m.group(1).split("#", 1)[0]
                if not target or _SKIP_LINK.search(target):
                    continue
                if not repo.exists(posixpath.join(base, target)):
                    findings.append(Finding(
                        path, ln, RULE_LINK,
                        f"link target '{m.group(1)}' does not exist",
                        symbol=m.group(1)))
    return findings


def check_rules(repo: Repo) -> list[Finding]:
    from .passes import rule_ids  # the registry imports this module

    findings: list[Finding] = []
    catalog = set(rule_ids())
    documented = table_rows(repo, DESIGN_PATH, _RULE_ROW)
    first_row = min(documented.values(), default=1)
    for rule in sorted(catalog - documented.keys()):
        findings.append(Finding(
            DESIGN_PATH, first_row, RULE_UNDOC_RULE,
            f"rule '{rule}' is in the --list-rules catalog but missing from "
            f"the {DESIGN_PATH} rule table", symbol=rule))
    for rule in sorted(documented.keys() - catalog):
        findings.append(Finding(
            DESIGN_PATH, documented[rule], RULE_UNKNOWN_RULE,
            f"rule '{rule}' is in the {DESIGN_PATH} rule table but not in "
            f"the --list-rules catalog", symbol=rule))
    return findings


def run(repo: Repo) -> list[Finding]:
    return check_metrics(repo) + check_links(repo) + check_rules(repo)
