"""CLI for silo-analyze.

Usage:
  python3 scripts/silo_analyze                      # all passes, exit 1 on findings
  python3 scripts/silo_analyze --pass lint --pass docs
  python3 scripts/silo_analyze --shared-state-out=shared_state.json
  python3 scripts/silo_analyze --list-rules         # rule catalog (id: summary)
  python3 scripts/silo_analyze --self-test          # embedded fixture corpus

Suppression: `// silo-analyze: allow(<rule>)` on the offending line or
alone on the line above. Exit status: 0 clean, 1 findings (or self-test
failure), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

if __package__ in (None, ""):  # `python3 scripts/silo_analyze` execution
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    __package__ = "silo_analyze"

from . import selftest, shared_state
from .base import Repo
from .passes import PASSES, rules


def analyze(repo: Repo, pass_names: list[str]) -> tuple[list, list]:
    """Run passes; returns (violations, all census findings)."""
    findings = []
    for name in pass_names:
        findings.extend(PASSES[name].run(repo))
    repo.apply_allows(findings)
    violations = [f for f in findings if not f.allowed]
    return violations, findings


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="silo_analyze", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule catalog (id: summary) and exit")
    ap.add_argument("--self-test", action="store_true",
                    help="run the embedded fixture corpus and exit")
    ap.add_argument("--pass", dest="passes", action="append",
                    choices=list(PASSES), metavar="NAME",
                    help="run only this pass (repeatable): "
                         + ", ".join(PASSES))
    ap.add_argument("--shared-state-out", metavar="PATH",
                    help="write the shared-state census JSON here")
    ap.add_argument("--root", default=None,
                    help="repo root (default: two levels above this file)")
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 2

    if args.list_rules:
        for rule_id, summary in rules():
            print(f"{rule_id}: {summary}")
        return 0
    if args.self_test:
        return selftest.run_self_test()

    root = Path(args.root) if args.root else \
        Path(__file__).resolve().parent.parent.parent
    repo = Repo.from_disk(root)
    pass_names = args.passes or list(PASSES)
    violations, findings = analyze(repo, pass_names)

    if args.shared_state_out and "shared-state" in pass_names:
        payload = shared_state.census_json(findings)
        Path(args.shared_state_out).write_text(
            json.dumps(payload, indent=2) + "\n")

    for f in violations:
        print(f.format())
    allowed = [f for f in findings if f.allowed]
    summary = (f"silo-analyze: passes [{', '.join(pass_names)}] — "
               f"{len(violations)} violation(s), "
               f"{len(allowed)} reviewed allow(s)")
    if violations:
        print(f"\n{summary}. Suppress a reviewed exception with "
              f"'// silo-analyze: allow(<rule>)'.")
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
