"""Walking targets, running checks, filtering suppressions.

:class:`Project` is the cross-file context handed to every check: the
parsed files under analysis and a project-wide class/field table (for the
protocol-coverage check).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.base import (
    Check,
    ClassInfo,
    Finding,
    ParsedFile,
    all_checks,
    extract_class_info,
)

#: Directory names never descended into while collecting targets.
SKIP_DIRS = frozenset({
    "__pycache__", ".git", ".venv", "venv", "node_modules",
    ".pytest_cache", "results",
})


def iter_python_files(paths: Sequence[Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    seen: set[Path] = set()
    out: list[Path] = []
    for path in paths:
        if path.is_file():
            candidates: Iterable[Path] = [path]
        else:
            candidates = sorted(
                p for p in path.rglob("*.py")
                if not any(part in SKIP_DIRS for part in p.parts)
            )
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                out.append(candidate)
    return out


class Project:
    """Everything the checks can see: parsed files + cross-file tables."""

    def __init__(self, files: Sequence[ParsedFile]) -> None:
        self.files: dict[Path, ParsedFile] = {f.path: f for f in files}
        self.classes: dict[str, ClassInfo] = {}
        for parsed in files:
            self._index_classes(parsed)

    def _index_classes(self, parsed: ParsedFile) -> None:
        for node in ast.walk(parsed.tree):
            if isinstance(node, ast.ClassDef):
                info = extract_class_info(node, parsed.path)
                # First definition wins; the repo has no intentional
                # cross-module class-name collisions among dataclasses.
                self.classes.setdefault(node.name, info)


def format_finding(finding: Finding) -> str:
    return finding.render()


def _instantiate(select: Sequence[str] | None) -> list[Check]:
    registry = all_checks()
    if select:
        unknown = sorted(set(select) - set(registry))
        if unknown:
            raise SystemExit(
                f"unknown check code(s): {', '.join(unknown)} "
                f"(known: {', '.join(registry)})"
            )
        return [registry[code]() for code in select]
    return [cls() for cls in registry.values()]


def analyze_paths(
    paths: Sequence[Path | str],
    select: Sequence[str] | None = None,
) -> list[Finding]:
    """Run the (selected) checks over ``paths``; return surviving findings
    sorted by location. Unparsable files surface as ``RPA001`` findings so
    a syntax error can never silently shrink coverage."""
    targets = iter_python_files([Path(p) for p in paths])
    parsed_files: list[ParsedFile] = []
    findings: list[Finding] = []
    for target in targets:
        try:
            parsed_files.append(
                ParsedFile(target, target.read_text(encoding="utf-8"))
            )
        except SyntaxError as error:
            findings.append(Finding(
                file=target, line=error.lineno or 1,
                col=(error.offset or 1) - 1, code="RPA001",
                message=f"file does not parse: {error.msg}",
            ))
        except OSError as error:
            findings.append(Finding(
                file=target, line=1, col=0, code="RPA001",
                message=f"file is unreadable: {error}",
            ))

    project = Project(parsed_files)
    checks = _instantiate(select)
    for check in checks:
        for parsed in parsed_files:
            findings.extend(check.check_file(parsed, project))

    survivors = []
    for finding in findings:
        parsed = project.files.get(finding.file)
        if parsed is not None and parsed.is_suppressed(finding):
            continue
        survivors.append(finding)
    survivors.sort(key=lambda f: (str(f.file), f.line, f.col, f.code))
    return survivors
