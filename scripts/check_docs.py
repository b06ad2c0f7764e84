#!/usr/bin/env python
"""Markdown link checker for the repo docs.

Walks ``docs/*.md``, ``README.md``, ``DESIGN.md`` and ``EXPERIMENTS.md``
and verifies that every reference a reader could follow actually
resolves:

* inline markdown links ``[text](target)`` — relative targets must
  exist on disk (resolved against the referencing file, with a
  repo-root fallback); ``http(s)``/``mailto`` targets are recorded but
  not fetched (no network in CI);
* backticked repo paths like ``scripts/telemetry_smoke.py`` or
  ``docs/observability.md`` — any path-shaped reference with a tracked
  source extension must exist (resolved against the repo root, with an
  ``src/`` fallback for module paths like ``repro/telemetry/schema.py``).

Exit 0 when everything resolves, 1 with a per-reference diagnostic
otherwise.  Run it any time with::

    python scripts/check_docs.py [--root DIR]
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

#: markdown inline link: [text](target)
_LINK = re.compile(r"\[[^][]*\]\(([^()\s]+)\)")
#: backticked path-shaped reference with a source extension; requires a
#: "/" so bare runtime names (`manifest.json`, `latest`) don't count
_BACKTICK_PATH = re.compile(r"`([A-Za-z0-9_.-]+(?:/[A-Za-z0-9_.-]+)+\.(?:md|py|json|sh|yml|yaml|txt|rst))`")
_EXTERNAL = ("http://", "https://", "mailto:")


def _doc_files(root: pathlib.Path) -> list[pathlib.Path]:
    files = sorted((root / "docs").glob("*.md"))
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        p = root / name
        if p.exists():
            files.append(p)
    return files


def _resolves(target: str, doc: pathlib.Path, root: pathlib.Path) -> bool:
    candidates = (doc.parent / target, root / target, root / "src" / target)
    return any(c.exists() for c in candidates)


def check_file(doc: pathlib.Path, root: pathlib.Path) -> tuple[list[str], int]:
    """(broken-reference diagnostics, references checked) for one file."""
    text = doc.read_text()
    broken: list[str] = []
    checked = 0
    rel = doc.relative_to(root)

    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL):
            continue  # recorded, not fetched
        target = target.split("#", 1)[0]
        if not target:
            continue  # pure in-page anchor
        checked += 1
        if not _resolves(target, doc, root):
            line = text.count("\n", 0, match.start()) + 1
            broken.append(f"{rel}:{line}: broken link target {target!r}")

    for match in _BACKTICK_PATH.finditer(text):
        target = match.group(1)
        checked += 1
        if not _resolves(target, doc, root):
            line = text.count("\n", 0, match.start()) + 1
            broken.append(f"{rel}:{line}: referenced file {target!r} does not exist")

    return broken, checked


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: the parent of this script's directory)")
    args = ap.parse_args(argv)
    root = (
        pathlib.Path(args.root).resolve()
        if args.root
        else pathlib.Path(__file__).resolve().parents[1]
    )

    total_checked = 0
    failures: list[str] = []
    for doc in _doc_files(root):
        broken, checked = check_file(doc, root)
        total_checked += checked
        failures.extend(broken)
        status = "FAIL" if broken else "ok"
        print(f"  {status:4s}  {doc.relative_to(root)}  ({checked} refs)")

    if failures:
        print(f"\n{len(failures)} broken reference(s):")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"\nOK: {total_checked} references across {len(_doc_files(root))} files all resolve")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
