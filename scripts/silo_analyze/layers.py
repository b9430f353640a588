"""Layers pass — layer-DAG enforcement over the src/ include graph.

The module layering is frozen in scripts/silo_analyze/layers.json: for each
module under src/, the manifest lists exactly the modules its files may
include from. The pass fails on

  - an include crossing a module boundary without a manifest edge
    (`layer-dag`) — new coupling must be declared in review, not smuggled
    in through a header;
  - a manifest whose declared edges contain a cycle (`layer-dag`) — the
    layering itself must stay a DAG;
  - a declared edge no file uses any more (`layer-dag`) — the manifest
    must shrink when the coupling goes away, so it never overstates what
    the code may do;
  - a src/ module missing from the manifest (`layer-dag`);
  - a cycle between *files* anywhere in src/ (`include-cycle`) — header
    guards hide these from the compiler, and they are exactly the knots a
    per-rack parallel-sim carve-out would have to cut.

Suppress a single include with `// silo-analyze: allow(layer-dag)` on the
include line; prefer fixing the layering.
"""

from __future__ import annotations

import re

from . import lexer
from .base import Finding, Repo, module_of

RULE_DAG = "layer-dag"
RULE_CYCLE = "include-cycle"

RULES = [
    (RULE_DAG,
     "module include edge not declared in the layer manifest "
     "(scripts/silo_analyze/layers.json), manifest cycle, or stale edge"),
    (RULE_CYCLE,
     "include cycle between src/ files (invisible to the compiler "
     "behind header guards)"),
]

_INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+)"')


def local_includes(text: str) -> list[tuple[int, str]]:
    """(line, quoted include path) for every `#include "..."` in `text`."""
    out = []
    for tok in lexer.lex(text):
        if tok.kind != lexer.PP:
            continue
        m = _INCLUDE_RE.match(tok.value)
        if m:
            out.append((tok.line, m.group(1)))
    return out


def run(repo: Repo) -> list[Finding]:
    findings: list[Finding] = []
    manifest = repo.manifest
    if not manifest or "modules" not in manifest:
        return [Finding(repo.manifest_path, 1, RULE_DAG,
                        "layer manifest missing or has no 'modules' table")]
    declared: dict[str, set[str]] = {
        m: set(deps) for m, deps in manifest["modules"].items()}

    # Manifest self-checks: declared deps must name declared modules, and
    # the declared graph must be acyclic.
    for mod, deps in sorted(declared.items()):
        for dep in sorted(deps - declared.keys()):
            findings.append(Finding(
                repo.manifest_path, 1, RULE_DAG,
                f"module '{mod}' declares dependency on unknown "
                f"module '{dep}'", symbol=f"{mod}->{dep}"))
    for cyc in _cycles({m: sorted(d & declared.keys())
                        for m, d in declared.items()}):
        findings.append(Finding(
            repo.manifest_path, 1, RULE_DAG,
            "declared module layering contains a cycle: " + " -> ".join(cyc),
            symbol=" -> ".join(cyc)))

    # Walk every include in src/.
    used_edges: set[tuple[str, str]] = set()
    file_graph: dict[str, list[tuple[int, str]]] = {}
    for path in repo.src_files():
        mod = module_of(path)
        if mod is None:
            continue
        if mod not in declared:
            findings.append(Finding(
                path, 1, RULE_DAG,
                f"module '{mod}' is not declared in the layer manifest",
                symbol=mod))
            continue
        for line, inc in local_includes(repo.files[path]):
            target = "src/" + inc
            if target in repo.files:
                file_graph.setdefault(path, []).append((line, target))
            tmod = module_of(target)
            if tmod is None or tmod == mod:
                continue
            used_edges.add((mod, tmod))
            if tmod not in declared.get(mod, set()):
                findings.append(Finding(
                    path, line, RULE_DAG,
                    f"include crosses an undeclared layer edge "
                    f"{mod} -> {tmod} (\"{inc}\"); declared deps of "
                    f"'{mod}': {sorted(declared.get(mod, set()))}",
                    symbol=f"{mod}->{tmod}"))

    for mod, deps in sorted(declared.items()):
        for dep in sorted(deps):
            if dep in declared and (mod, dep) not in used_edges:
                findings.append(Finding(
                    repo.manifest_path, 1, RULE_DAG,
                    f"declared edge {mod} -> {dep} is no longer used by any "
                    f"include; remove it from the manifest",
                    symbol=f"{mod}->{dep}"))

    # File-level include cycles.
    plain = {p: [t for _, t in incs] for p, incs in file_graph.items()}
    for cyc in _cycles(plain):
        head = cyc[0]
        line = next((ln for ln, t in file_graph.get(head, [])
                     if t == cyc[1 % len(cyc)]), 1)
        findings.append(Finding(
            head, line, RULE_CYCLE,
            "include cycle between files: " + " -> ".join(cyc),
            symbol=" -> ".join(cyc)))
    return findings


def _cycles(graph: dict[str, list[str]]) -> list[list[str]]:
    """Every distinct cycle found by DFS (reported once, deterministic
    order). Nodes are visited in sorted order, so output is stable."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in graph}
    stack: list[str] = []
    out: list[list[str]] = []
    seen: set[frozenset] = set()

    def visit(v: str) -> None:
        color[v] = GRAY
        stack.append(v)
        for w in graph.get(v, []):
            if w not in color:
                continue
            if color[w] == GRAY:
                cyc = stack[stack.index(w):] + [w]
                key = frozenset(cyc)
                if key not in seen:
                    seen.add(key)
                    out.append(cyc)
            elif color[w] == WHITE:
                visit(w)
        stack.pop()
        color[v] = BLACK

    for v in sorted(graph):
        if color[v] == WHITE:
            visit(v)
    return out
