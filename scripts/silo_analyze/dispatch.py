"""Dispatch pass — enum and protocol-struct handler exhaustiveness.

The engine's determinism story leans on total dispatch: every EventKind has
a case in EventQueue::dispatch, every JournalOp replays, every field of a
protocol struct is folded by its serializer/checksum/apply function. The
compiler warns about a missing enum case only when the switch has no
default; nothing at all checks struct-field coverage ("added a field to
PacerConfigDelta, forgot PacerConfigTable::apply" is a silent wrong-state
bug). This pass makes both total:

  - enum -> handler: every enumerator of a configured enum must be named
    (as `Enum::kVariant` or `case`-style `Kind::kVariant`) inside the
    configured handler function;
  - struct -> handler: every field of a configured struct must be
    referenced (as `.field` or `->field`) inside the configured handler.

Sites are configured in SWITCH_SITES / FIELD_SITES below — adding an
event kind, journal op, or protocol field without updating its handlers
fails CI. Suppress a deliberately-unhandled variant with
`// silo-analyze: allow(dispatch-exhaustive)` on the enumerator/field
declaration line (per-handler exemptions live in the site config with a
reason string).

Rule id: `dispatch-exhaustive`. A site whose enum/struct/function can no
longer be found is itself a finding — config rot fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import lexer
from .base import Finding, Repo

RULE = "dispatch-exhaustive"

RULES = [
    (RULE,
     "enum variant without a dispatch case, or protocol-struct field "
     "not covered by its serializer/checksum/apply handler"),
]


@dataclass(frozen=True)
class SwitchSite:
    enum: str        # lexical enum name ("EventKind", "Kind", ...)
    enum_path: str
    fn: str          # qualified handler ("EventQueue::dispatch")
    fn_path: str
    why: str         # what breaks when a variant is unhandled
    exempt: dict = field(default_factory=dict)  # variant -> reason


@dataclass(frozen=True)
class FieldSite:
    struct: str
    struct_path: str
    fn: str
    fn_path: str
    why: str
    exempt: dict = field(default_factory=dict)  # field -> reason
    # Overloaded handler: pick the definition whose parameter list
    # contains this token text (spaces ignored), e.g. "Snapshot::Tenant&".
    param: str = ""


SWITCH_SITES = [
    SwitchSite(
        "EventKind", "src/sim/event_queue.h",
        "EventQueue::dispatch", "src/sim/event_queue.cc",
        "an undispatched event kind is silently dropped by the engine"),
    SwitchSite(
        "JournalOp", "src/core/journal.h",
        "SiloController::recover_from_journal", "src/core/controller.cc",
        "an unreplayed op breaks bit-identical crash recovery"),
    SwitchSite(
        "EvKind", "src/flowsim/flow_sim.cc",
        "Sim::run", "src/flowsim/flow_sim.cc",
        "an undispatched flowsim event stalls the fluid solver"),
    SwitchSite(
        "Kind", "src/sim/faults.h",
        "FaultInjector::execute", "src/sim/faults.cc",
        "an unexecuted fault action makes a chaos schedule a no-op"),
    SwitchSite(
        "Kind", "src/sim/control_channel.h",
        "ControlChannel::on_message", "src/sim/control_channel.cc",
        "an undispatched channel message silently loses a delivery, ack "
        "or timer"),
]

_KEYED = ("keyed entries: the journal encodes and digests each one on "
          "its own, through the entry overload of the same function")

FIELD_SITES = [
    FieldSite(
        "PacerConfigDelta", "src/pacer/pacer_config.h",
        "PacerConfigTable::apply", "src/pacer/pacer_config.h",
        "an unapplied delta field diverges hypervisor state from the "
        "controller's snapshot",
        exempt={"server": "routing key; consumed by ControlChannel::ship "
                          "to pick the destination agent, opaque to apply"}),
    FieldSite(
        "JournalRecord", "src/core/journal.h",
        "write_record", "src/core/journal.cc",
        "a field outside the record encoding is lost across crash + "
        "recovery and tamperable without detection (the chain value "
        "hashes exactly these bytes)",
        exempt={"chain": "the chain value itself — the hash of these "
                         "bytes, written after them"}),
    FieldSite(
        "JournalRecord", "src/core/journal.h",
        "read_record", "src/core/journal.cc",
        "an unread field desynchronizes the byte codec"),
    FieldSite(
        "PacerLeaseRecord", "src/pacer/pacer_config.h",
        "pacer_lease_checksum", "src/pacer/pacer_config.h",
        "a lease field outside the checksum escapes the lending-path "
        "equivalence goldens"),
    FieldSite(
        "PacerConfigRecord", "src/pacer/pacer_config.h",
        "fnv_mix_record", "src/pacer/pacer_config.h",
        "a config field outside the checksum escapes the delta-vs-snapshot "
        "goldens"),
    FieldSite(
        "PacerConfigRecord", "src/pacer/pacer_config.h",
        "same_record", "src/pacer/pacer_config.h",
        "a config field outside the exact comparison lets "
        "ControlChannel::converged() call a desynced agent converged"),
] + [
    # The journal's snapshot codec: a field left out of an overload is lost
    # across crash + recovery and escapes the per-entry snapshot digests.
    FieldSite(struct, path, fn, "src/core/journal.cc",
              f"a snapshot field outside {fn} escapes the journal's "
              f"snapshot digest and is lost across crash + recovery",
              exempt=exempt, param=param)
    for fn in ("write_snapshot", "read_snapshot")
    for struct, path, param, exempt in (
        ("ControllerSnapshot", "src/core/journal.h", "ControllerSnapshot&",
         {"tenants": _KEYED}),
        ("Tenant", "src/core/journal.h", "ControllerSnapshot::Tenant&", {}),
        ("EngineSnapshot", "src/placement/placement.h",
         "ControllerSnapshot&", {"tenants": _KEYED}),
        ("Tenant", "src/placement/placement.h",
         "EngineSnapshot::Tenant&", {}),
        ("FailedServer", "src/placement/placement.h",
         "ControllerSnapshot&", {}),
    )
]


def run(repo: Repo) -> list[Finding]:
    findings: list[Finding] = []
    for site in SWITCH_SITES:
        findings.extend(_check_switch(repo, site))
    for site in FIELD_SITES:
        findings.extend(_check_fields(repo, site))
    return findings


# ---- enum -> handler -------------------------------------------------------

def _check_switch(repo: Repo, site: SwitchSite) -> list[Finding]:
    etoks = lexer.lex(repo.files.get(site.enum_path, ""))
    enum = find_enum(etoks, site.enum)
    if enum is None:
        return [Finding(site.enum_path, 1, RULE,
                        f"configured enum '{site.enum}' not found "
                        f"(dispatch.py site config rotted?)")]
    enum_line, variants = enum
    body = find_function_body(lexer.lex(repo.files.get(site.fn_path, "")),
                              site.fn)
    if body is None:
        return [Finding(site.fn_path, 1, RULE,
                        f"configured handler '{site.fn}' not found "
                        f"(dispatch.py site config rotted?)")]
    _, btoks = body
    handled = _qualified_members(btoks)
    out = []
    for vline, variant in variants:
        if variant in site.exempt or variant in handled:
            continue
        out.append(Finding(
            site.enum_path, vline, RULE,
            f"enum {site.enum}::{variant} has no handler in "
            f"{site.fn} ({site.fn_path}) — {site.why}",
            symbol=f"{site.enum}::{variant}"))
    if not variants:
        out.append(Finding(site.enum_path, enum_line, RULE,
                           f"enum '{site.enum}' parsed with no enumerators"))
    return out


def _qualified_members(toks: list[lexer.Token]) -> set[str]:
    """Identifiers appearing as `Something::name` inside the tokens."""
    out = set()
    for i in range(3, len(toks)):
        if toks[i].kind == lexer.ID and \
                toks[i - 1].value == ":" and toks[i - 2].value == ":":
            out.add(toks[i].value)
    return out


def find_enum(toks: list[lexer.Token],
              name: str) -> tuple[int, list[tuple[int, str]]] | None:
    """Locate `enum [class] <name>` and return (line, [(line, enumerator)]).
    Skips any underlying-type clause; initializer expressions are skipped
    token-wise (until ',' or '}' at depth 0)."""
    n = len(toks)
    for i in range(n - 1):
        if not (toks[i].kind == lexer.ID and toks[i].value == "enum"):
            continue
        j = i + 1
        if j < n and toks[j].value in ("class", "struct"):
            j += 1
        if not (j < n and toks[j].kind == lexer.ID and toks[j].value == name):
            continue
        line = toks[j].line
        j += 1
        while j < n and toks[j].value != "{":
            if toks[j].value == ";":  # forward declaration
                break
            j += 1
        if j >= n or toks[j].value != "{":
            continue
        j += 1
        variants: list[tuple[int, str]] = []
        expect_name = True
        depth = 0
        while j < n:
            v = toks[j].value
            if depth == 0 and v == "}":
                return line, variants
            if v in "({[<":
                depth += 1
            elif v in ")}]>":
                depth -= 1
            elif depth == 0 and v == ",":
                expect_name = True
            elif depth == 0 and expect_name and toks[j].kind == lexer.ID:
                variants.append((toks[j].line, v))
                expect_name = False
            j += 1
        return line, variants
    return None


# ---- struct fields -> handler ----------------------------------------------

def _check_fields(repo: Repo, site: FieldSite) -> list[Finding]:
    stoks = lexer.lex(repo.files.get(site.struct_path, ""))
    fields = find_struct_fields(stoks, site.struct)
    if fields is None:
        return [Finding(site.struct_path, 1, RULE,
                        f"configured struct '{site.struct}' not found "
                        f"(dispatch.py site config rotted?)")]
    body = find_function_body(lexer.lex(repo.files.get(site.fn_path, "")),
                              site.fn, site.param)
    if body is None:
        return [Finding(site.fn_path, 1, RULE,
                        f"configured handler '{site.fn}"
                        f"({site.param})' not found "
                        f"(dispatch.py site config rotted?)")]
    _, btoks = body
    referenced = _member_accesses(btoks)
    out = []
    for fline, fname in fields:
        if fname in site.exempt or fname in referenced:
            continue
        out.append(Finding(
            site.struct_path, fline, RULE,
            f"field {site.struct}::{fname} is not referenced in "
            f"{site.fn} ({site.fn_path}) — {site.why}",
            symbol=f"{site.struct}::{fname}"))
    return out


def _member_accesses(toks: list[lexer.Token]) -> set[str]:
    """Identifiers appearing as `.name` or `->name` inside the tokens."""
    out = set()
    for i in range(1, len(toks)):
        if toks[i].kind != lexer.ID:
            continue
        if toks[i - 1].value == "." or \
                (toks[i - 1].value == ">" and i >= 2 and
                 toks[i - 2].value == "-"):
            out.add(toks[i].value)
    return out


def find_struct_fields(toks: list[lexer.Token],
                       name: str) -> list[tuple[int, str]] | None:
    """Data members of `struct/class <name>`: depth-1 declaration
    statements that are not functions, nested types, usings, or static
    constants. Returns [(line, field_name)] or None if not found."""
    n = len(toks)
    for i in range(n - 1):
        if not (toks[i].kind == lexer.ID and
                toks[i].value in ("struct", "class")):
            continue
        if not (i + 1 < n and toks[i + 1].kind == lexer.ID and
                toks[i + 1].value == name):
            continue
        j = i + 2
        while j < n and toks[j].value not in ("{", ";"):
            j += 1
        if j >= n or toks[j].value != "{":
            continue  # forward declaration; keep looking
        j += 1
        fields: list[tuple[int, str]] = []
        depth = 1
        stmt: list[lexer.Token] = []
        while j < n and depth > 0:
            v = toks[j].value
            if v == "{":
                depth += 1
                stmt = []
            elif v == "}":
                depth -= 1
                stmt = []
            elif depth == 1 and v == ";":
                f = _field_of_stmt(stmt)
                if f is not None:
                    fields.append(f)
                stmt = []
            elif depth == 1 and toks[j].kind != lexer.PP:
                stmt.append(toks[j])
            j += 1
        return fields
    return None


_FIELD_SKIP = {"using", "typedef", "static", "friend", "struct", "class",
               "enum", "union", "template", "static_assert", "operator",
               "public", "private", "protected", "constexpr", "explicit",
               "virtual"}


def _field_of_stmt(stmt: list[lexer.Token]) -> tuple[int, str] | None:
    ids = [t.value for t in stmt if t.kind == lexer.ID]
    if len(ids) < 2 or _FIELD_SKIP & set(ids):
        return None
    last_id = None
    for t in stmt:
        if t.kind == lexer.PUNCT and t.value in ("=", "{"):
            break
        if t.kind == lexer.ID:
            last_id = t
    if last_id is None:
        return None
    # '(' before the initializer marks a member function declaration.
    for t in stmt:
        if t.kind == lexer.PUNCT and t.value in ("=", "{"):
            break
        if t.kind == lexer.PUNCT and t.value == "(":
            return None
    return last_id.line, last_id.value


# ---- function body extraction ----------------------------------------------

def find_function_body(
        toks: list[lexer.Token], qualified: str,
        param: str = "") -> tuple[int, list[lexer.Token]] | None:
    """Locate the definition of `A::B::name` (or a free `name`) and return
    (line, body tokens). Matches the qualified id sequence followed by an
    argument list and an opening brace (skipping member initializers,
    const/noexcept/trailing-return clutter). A non-empty `param` selects
    the overload whose argument list contains that text."""
    parts = qualified.split("::")
    found = _find_body_parts(toks, parts, param)
    if found is None and len(parts) > 1:
        # In-class definition: `A::b` is written as plain `b` inside the
        # class body. The preceding-token check still rejects calls.
        found = _find_body_parts(toks, parts[-1:], param)
    return found


def _find_body_parts(
        toks: list[lexer.Token], parts: list[str],
        param: str = "") -> tuple[int, list[lexer.Token]] | None:
    n = len(toks)
    want = len(parts) * 3 - 2  # ids interleaved with ':' ':' pairs
    param = param.replace(" ", "")
    for i in range(n - want):
        if not _matches_qualified(toks, i, parts):
            continue
        j = i + want
        if j >= n or toks[j].value != "(":
            continue
        args_start = j
        depth = 0
        while j < n:
            v = toks[j].value
            if v == "(":
                depth += 1
            elif v == ")":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        if param and param not in "".join(
                t.value for t in toks[args_start:j]):
            continue
        j += 1
        # Scan forward to '{' (body) or ';' (just a declaration).
        while j < n and toks[j].value not in ("{", ";"):
            j += 1
        if j >= n or toks[j].value == ";":
            continue
        line = toks[i].line
        depth = 1
        j += 1
        start = j
        while j < n and depth > 0:
            if toks[j].value == "{":
                depth += 1
            elif toks[j].value == "}":
                depth -= 1
            j += 1
        return line, toks[start:j]
    return None


def _matches_qualified(toks: list[lexer.Token], i: int,
                       parts: list[str]) -> bool:
    for k, part in enumerate(parts):
        idx = i + 3 * k
        if toks[idx].kind != lexer.ID or toks[idx].value != part:
            return False
        if k + 1 < len(parts):
            if toks[idx + 1].value != ":" or toks[idx + 2].value != ":":
                return False
    # Reject a *call* or qualified mention: the id must not be preceded by
    # '.', '->' or '::'.
    if i > 0 and toks[i - 1].value in (".", ":"):
        return False
    return True
