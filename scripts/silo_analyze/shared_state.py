"""Shared-state pass — mutable-shared-state census over src/.

The ROADMAP's deterministic-parallel-simulation item needs per-rack
sequential islands; any mutable state reachable from two islands breaks
that carve-out silently. This pass enumerates every place such state can
hide in C++:

  - `mutable-global`: a non-const variable at namespace scope (including
    anonymous namespaces and `inline` variables) — process-wide state two
    engine instances would share;
  - `mutable-static-local`: a non-const function-local `static` — the same
    thing wearing a function costume, plus a C++11 init guard (a hidden
    synchronization point);
  - `pointer-keyed-container`: `std::map`/`std::set` (and multi/unordered
    variants) keyed by a pointer — iteration order is address order, i.e.
    allocator-dependent, the exact nondeterminism the lint pass's
    unordered-container rule exists to keep out.

Beyond pass/fail, the census is a report: run() also feeds
shared_state.json, which enumerates *all* findings including allowed ones
(with their justification comments) — that file is the work-list for the
parallel-sim carve-out.

Detection is precise for this repo's style (token-based, scope-tracked),
not a full C++ parser: `const char* p` counts as const (the pointee is),
and class-static members are left to clang-tidy. The self-test corpus pins
the supported shapes.

`thread_local` variables (namespace-scope or function-local) are *not*
counted: each thread owns its own instance, so two islands running on
different threads cannot race through one, and a single thread never runs
two islands concurrently. That is exactly the confinement the census
exists to prove, so per-thread state is the sanctioned escape hatch —
no allow() comment needed.
"""

from __future__ import annotations

from . import lexer
from .base import Finding, Repo

RULE_GLOBAL = "mutable-global"
RULE_STATIC_LOCAL = "mutable-static-local"
RULE_PTR_KEY = "pointer-keyed-container"

RULES = [
    (RULE_GLOBAL,
     "mutable namespace-scope variable in src/ (process-wide shared "
     "state; blocks the parallel-sim carve-out)"),
    (RULE_STATIC_LOCAL,
     "mutable function-local static in src/ (hidden shared state plus "
     "an init guard)"),
    (RULE_PTR_KEY,
     "pointer-keyed std::map/std::set in src/ (address-ordered "
     "iteration is allocator-dependent)"),
]

_SKIP_DECL_WORDS = {
    "const", "constexpr", "constinit", "using", "typedef", "friend",
    "template", "static_assert", "extern", "operator", "class", "struct",
    "enum", "union", "namespace", "concept", "requires", "return", "if",
    "for", "while", "switch", "case", "default", "do", "else", "goto",
    "public", "private", "protected", "throw", "delete", "asm",
}

_CONTAINERS = {"map", "set", "multimap", "multiset",
               "unordered_map", "unordered_set",
               "unordered_multimap", "unordered_multiset"}


def run(repo: Repo) -> list[Finding]:
    findings: list[Finding] = []
    for path in repo.src_files():
        toks = lexer.lex(repo.files[path])
        findings.extend(_scan_scopes(path, toks))
        findings.extend(_scan_pointer_keys(path, toks))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


# ---- namespace-scope / static-local census --------------------------------

def _scan_scopes(path: str, toks: list[lexer.Token]) -> list[Finding]:
    findings: list[Finding] = []
    # Scope kinds: 'namespace' | 'type' | 'block' | 'init'.  File scope
    # behaves like a namespace scope (an empty stack == namespace level).
    stack: list[str] = []
    stmt: list[lexer.Token] = []

    def at_namespace_level() -> bool:
        return all(s == "namespace" for s in stack)

    def innermost() -> str:
        return stack[-1] if stack else "namespace"

    for tok in toks:
        if tok.kind == lexer.PP:
            continue
        v = tok.value
        if tok.kind == lexer.PUNCT and v == "{":
            kind = _classify_open(stmt, innermost())
            if kind == "init":
                if at_namespace_level():
                    _check_decl(path, stmt, findings)
                else:
                    _check_static_local(path, stmt, findings)
            stack.append(kind)
            stmt = []
            continue
        if tok.kind == lexer.PUNCT and v == "}":
            if stack:
                stack.pop()
            stmt = []
            continue
        if tok.kind == lexer.PUNCT and v == ";":
            if at_namespace_level():
                _check_decl(path, stmt, findings)
            elif innermost() == "block":
                _check_static_local(path, stmt, findings)
            stmt = []
            continue
        stmt.append(tok)
    return findings


def _classify_open(stmt: list[lexer.Token], enclosing: str) -> str:
    """What scope does this `{` open, given the statement before it?"""
    ids = [t.value for t in stmt if t.kind == lexer.ID]
    vals = [t.value for t in stmt]
    if ids and ids[0] == "namespace":
        return "namespace"
    if ids and ids[0] == "inline" and len(ids) > 1 and ids[1] == "namespace":
        return "namespace"
    if "=" not in vals and any(w in ids for w in
                               ("class", "struct", "union", "enum")):
        return "type"
    if stmt and stmt[-1].kind == lexer.PUNCT and stmt[-1].value == ")":
        return "block"  # function body / control statement
    if stmt and stmt[-1].value in ("try", "do", "else"):
        return "block"
    # `static Type name{...}` in a function body: a brace-initialized
    # static local, not a nested scope.
    if enclosing == "block" and "static" in ids and len(ids) >= 2 and \
            stmt[-1].kind == lexer.ID:
        return "init"
    # `Type name{...}` / `Type name = {...}` at namespace level is a
    # brace-initialized variable definition, not a new lexical scope kind.
    if enclosing == "namespace" and len(ids) >= 2:
        return "init"
    return "block"


def _decl_name(stmt: list[lexer.Token]) -> lexer.Token | None:
    """The declared identifier: the last ID token before `=` (or before the
    end for `Type name;` / `Type name{...}` forms)."""
    last_id = None
    for t in stmt:
        if t.kind == lexer.PUNCT and t.value == "=":
            break
        if t.kind == lexer.ID:
            last_id = t
    return last_id


def _is_var_decl(stmt: list[lexer.Token]) -> bool:
    ids = [t.value for t in stmt if t.kind == lexer.ID]
    if len(ids) < 2:
        return False  # need at least a type and a name
    if _SKIP_DECL_WORDS & set(ids):
        return False
    # A '(' before any '=' means a function declaration (or a most-vexing
    # parse we choose not to flag; the repo style brace- or =-initializes).
    for t in stmt:
        if t.kind == lexer.PUNCT and t.value == "=":
            break
        if t.kind == lexer.PUNCT and t.value == "(":
            return False
    return True


def _check_decl(path: str, stmt: list[lexer.Token],
                findings: list[Finding]) -> None:
    if any(t.kind == lexer.ID and t.value == "thread_local" for t in stmt):
        return  # per-thread, not shared (see module docstring)
    if not _is_var_decl(stmt):
        return
    name = _decl_name(stmt)
    if name is None:
        return
    findings.append(Finding(
        path, name.line, RULE_GLOBAL,
        f"mutable namespace-scope variable '{name.value}' — process-wide "
        f"state shared by every simulation in the process",
        symbol=name.value))


def _check_static_local(path: str, stmt: list[lexer.Token],
                        findings: list[Finding]) -> None:
    ids = [t.value for t in stmt if t.kind == lexer.ID]
    if "static" not in ids:
        return
    if "thread_local" in ids:
        return  # per-thread, not shared (see module docstring)
    rest = [t for t in stmt if t.value != "static"]
    if not _is_var_decl(rest):
        return
    name = _decl_name(rest)
    if name is None:
        return
    findings.append(Finding(
        path, name.line, RULE_STATIC_LOCAL,
        f"mutable function-local static '{name.value}' — hidden "
        f"process-wide state (plus a C++11 init guard)",
        symbol=name.value))


# ---- pointer-keyed containers ---------------------------------------------

def _scan_pointer_keys(path: str,
                       toks: list[lexer.Token]) -> list[Finding]:
    findings: list[Finding] = []
    n = len(toks)
    for i in range(n - 3):
        if not (toks[i].kind == lexer.ID and toks[i].value == "std"):
            continue
        if not (toks[i + 1].value == ":" and toks[i + 2].value == ":"):
            continue
        j = i + 3
        if j >= n or toks[j].kind != lexer.ID or \
                toks[j].value not in _CONTAINERS:
            continue
        if j + 1 >= n or toks[j + 1].value != "<":
            continue
        # Scan the first template argument (depth-1, up to ',' or '>').
        depth = 1
        k = j + 2
        key_has_ptr = False
        while k < n and depth > 0:
            v = toks[k].value
            if v == "<":
                depth += 1
            elif v == ">":
                depth -= 1
            elif depth == 1 and v == ",":
                break
            elif depth == 1 and v == "*":
                key_has_ptr = True
            k += 1
        if key_has_ptr:
            findings.append(Finding(
                path, toks[j].line, RULE_PTR_KEY,
                f"std::{toks[j].value} keyed by a pointer — iteration "
                f"order is address order (allocator-dependent, breaks "
                f"run-to-run determinism)",
                symbol=f"std::{toks[j].value}"))
    return findings


# ---- machine-readable census ----------------------------------------------

def census_json(findings: list[Finding]) -> dict:
    """shared_state.json payload: every census finding, allowed or not.
    Near-zero entries is the goal; each allowed entry carries the reviewed
    justification comment."""
    ours = [f for f in findings
            if f.rule in (RULE_GLOBAL, RULE_STATIC_LOCAL, RULE_PTR_KEY)]
    return {
        "generator": "scripts/silo_analyze (shared-state census)",
        "schema_version": 1,
        "total": len(ours),
        "violations": sum(1 for f in ours if not f.allowed),
        "allowed": sum(1 for f in ours if f.allowed),
        "entries": [
            {
                "path": f.path,
                "line": f.line,
                "rule": f.rule,
                "symbol": f.symbol,
                "allowed": f.allowed,
                "justification": f.note,
                "message": f.message,
            }
            for f in ours
        ],
    }
