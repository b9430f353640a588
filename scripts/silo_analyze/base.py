"""Shared infrastructure for silo-analyze passes: the repo abstraction,
findings, and the `// silo-analyze: allow(<rule>)` suppression protocol.

Suppression is the same for every pass: an allow comment on the offending
line, or alone on the line immediately above, suppresses the named rule
there. Every suppression is a reviewed, documented exception — greppable,
and carried into shared_state.json so the census still enumerates allowed
state.
"""

from __future__ import annotations

import json
import posixpath
import re
from dataclasses import dataclass, field
from pathlib import Path

ALLOW_RE = re.compile(
    r"//\s*silo-analyze:\s*allow\(([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)\)")

SRC_EXTENSIONS = {".h", ".cc", ".cpp", ".hpp"}
CXX_DIRS = ("src/", "bench/", "tests/", "examples/")


@dataclass
class Finding:
    path: str      # repo-relative path the finding anchors to
    line: int      # 1-based
    rule: str
    message: str
    symbol: str = ""     # the variable/enumerator/metric involved, if any
    allowed: bool = False
    note: str = ""       # justification text scraped from the allow line

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class Repo:
    """The analyzer's view of the repository: a path->text mapping (C++
    sources under CXX_DIRS, markdown at the root and in docs/) plus the
    layer manifest. Real runs load from disk; self-tests build synthetic
    repos, so every pass is testable without touching the filesystem."""

    files: dict[str, str]            # repo-relative posix path -> content
    manifest: dict | None = None     # parsed layers.json
    manifest_path: str = "scripts/silo_analyze/layers.json"
    root: Path | None = None         # on-disk checkout; None when synthetic
    _allow_cache: dict = field(default_factory=dict)

    @staticmethod
    def from_disk(root: Path) -> "Repo":
        paths = [f for top in CXX_DIRS for f in sorted((root / top).rglob("*"))
                 if f.suffix in SRC_EXTENSIONS]
        paths += sorted(root.glob("*.md")) + sorted(root.glob("docs/*.md"))
        repo = Repo(files={f.relative_to(root).as_posix():
                           f.read_text(errors="replace")
                           for f in paths if f.is_file()}, root=root)
        mf = root / repo.manifest_path
        if mf.is_file():
            repo.manifest = json.loads(mf.read_text())
        return repo

    def cxx_files(self, prefixes: tuple[str, ...]) -> list[str]:
        return [p for p in sorted(self.files)
                if p.startswith(prefixes) and Path(p).suffix in SRC_EXTENSIONS]

    def src_files(self) -> list[str]:
        return self.cxx_files(("src/",))

    def markdown_files(self) -> list[str]:
        return [p for p in sorted(self.files) if p.endswith(".md")]

    def exists(self, path: str) -> bool:
        """Whether a repo-relative path names a file or directory: on disk
        for a loaded checkout, among `files` for a synthetic repo."""
        path = posixpath.normpath(path).lstrip("/")
        if self.root is not None:
            return (self.root / path).exists()
        return path in self.files or \
            any(p.startswith(path + "/") for p in self.files)

    # ---- suppression ----------------------------------------------------

    def _allows(self, path: str) -> dict[int, set[str]]:
        """line -> rule ids allowed on that line (own line or line above)."""
        cached = self._allow_cache.get(path)
        if cached is not None:
            return cached
        allows: dict[int, set[str]] = {}
        lines = self.files.get(path, "").splitlines()
        for ln, text in enumerate(lines, start=1):
            m = ALLOW_RE.search(text)
            if not m:
                continue
            ids = {part.strip() for part in m.group(1).split(",")}
            allows.setdefault(ln, set()).update(ids)
            # An allow comment alone on its line arms the next line too.
            if text.strip().startswith("//"):
                allows.setdefault(ln + 1, set()).update(ids)
        self._allow_cache[path] = allows
        return allows

    def allow_note(self, path: str, line: int) -> str:
        """Justification text: the comment content around an allow() on
        `line` or the armed line above it."""
        lines = self.files.get(path, "").splitlines()
        for ln in (line, line - 1):
            if 1 <= ln <= len(lines) and ALLOW_RE.search(lines[ln - 1]):
                text = lines[ln - 1]
                return text[text.find("//"):].strip()
        return ""

    def apply_allows(self, findings: list[Finding]) -> list[Finding]:
        """Mark findings whose anchor line carries a matching allow()."""
        for f in findings:
            if f.rule in self._allows(f.path).get(f.line, set()):
                f.allowed = True
                f.note = self.allow_note(f.path, f.line)
        return findings


def module_of(path: str) -> str | None:
    """src/<module>/... -> module name; None outside src/."""
    parts = path.split("/")
    if len(parts) >= 3 and parts[0] == "src":
        return parts[1]
    return None
