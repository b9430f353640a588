"""The pass registry: pass names in run order, and the one rule catalog
that `--list-rules` prints and the docs pass checks DESIGN.md against."""

from __future__ import annotations

from . import dispatch, docs, layers, lint, shared_state

PASSES = {
    "lint": lint,
    "layers": layers,
    "shared-state": shared_state,
    "dispatch": dispatch,
    "docs": docs,
}


def rules() -> list[tuple[str, str]]:
    """(rule id, summary) for every rule of every pass."""
    return [rule for mod in PASSES.values() for rule in mod.RULES]


def rule_ids() -> list[str]:
    return [rule_id for rule_id, _ in rules()]
