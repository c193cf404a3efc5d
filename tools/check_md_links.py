#!/usr/bin/env python3
"""Relative-link checker for the repo's markdown docs.

Scans the top-level *.md files and everything under docs/ for markdown
links `[text](target)` and verifies that every relative target exists in
the working tree. External (http/https/mailto) links and pure #anchors are
skipped — the check must stay hermetic so CI never flakes on the network.

Also scans the source trees (src/, bench/, tests/, tools/) for cited
markdown files — in comments and in printed text alike — and verifies
that each exists, relative to the repo root or to the citing file.

Exit code 0 = all links resolve; 1 = at least one broken link (each one is
printed as file:line: target).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

# [text](target) with an optional "title"; target captured up to the first
# unescaped closing paren. Inline code spans are stripped first so code
# samples like `foo(bar)` never register as links.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
CODE_SPAN_RE = re.compile(r"`[^`]*`")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")

# A markdown filename cited in a source file: a path-like token ending in
# .md (a bare `*.md` glob has no name and never matches).
MD_CITE_RE = re.compile(r"(?<![\w./-])([\w][\w./-]*\.md)\b")
SOURCE_DIRS = ("src", "bench", "tests", "tools")
SOURCE_SUFFIXES = {".h", ".cpp", ".py", ".cmake", ".in"}


def md_files(root: Path) -> list[Path]:
    files = sorted(root.glob("*.md"))
    docs = root / "docs"
    if docs.is_dir():
        files.extend(sorted(docs.rglob("*.md")))
    return files


def check_file(path: Path, root: Path) -> list[str]:
    errors = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        for match in LINK_RE.finditer(CODE_SPAN_RE.sub("", line)):
            target = match.group(1)
            if target.startswith(SKIP_PREFIXES):
                continue
            # Drop any #anchor suffix; anchor validity is out of scope.
            file_part = target.split("#", 1)[0]
            if not file_part:
                continue
            resolved = (path.parent / file_part).resolve()
            if not resolved.exists():
                rel = path.relative_to(root)
                errors.append(f"{rel}:{lineno}: broken link -> {target}")
    return errors


def source_files(root: Path) -> list[Path]:
    files = []
    for name in SOURCE_DIRS:
        base = root / name
        if base.is_dir():
            files.extend(p for p in sorted(base.rglob("*"))
                         if p.suffix in SOURCE_SUFFIXES and p.is_file())
    return files


def check_source_citations(path: Path, root: Path) -> list[str]:
    errors = []
    text = path.read_text(errors="replace")
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in MD_CITE_RE.finditer(line):
            cited = match.group(1)
            if (root / cited).exists() or (path.parent / cited).exists():
                continue
            rel = path.relative_to(root)
            errors.append(f"{rel}:{lineno}: cites missing file -> {cited}")
    return errors


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    errors: list[str] = []
    checked = 0
    for path in md_files(root):
        errors.extend(check_file(path, root))
        checked += 1
    for path in source_files(root):
        errors.extend(check_source_citations(path, root))
        checked += 1
    for err in errors:
        print(err)
    print(f"check_md_links: {checked} files checked, {len(errors)} broken")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
