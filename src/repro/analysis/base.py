"""Framework core: parsed files, findings, the check registry.

A check is a class with a ``code`` (``RPA###``), a ``name``, and a
``description``; :meth:`Check.check_file` inspects one
:class:`ParsedFile` (source + AST + comment map) at a time and yields
:class:`Finding`\\ s. Cross-file facts (the dataclass field table the
protocol-coverage check compares against) come from the
:class:`~repro.analysis.runner.Project` passed alongside.

Comments are not part of Python's AST, so :class:`ParsedFile` extracts
them with :mod:`tokenize` into a ``line -> text`` map; annotation markers
(``guarded-by:``, ``requires-lock``, ``# repro: ...``) and suppressions
all resolve through that map, which makes them robust against ``#``
characters inside string literals.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.runner import Project

# ``# repro: noqa`` or ``# repro: noqa-RPA101[,RPA103]``; plain-flake8
# ``# noqa`` is deliberately NOT honoured — suppressions of repo
# invariants should be greppable as a policy decision, not a reflex.
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:-(?P<codes>[A-Z0-9,\-]+))?")


@dataclass(frozen=True)
class Finding:
    """One reported invariant violation."""

    file: Path
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.file}:{self.line}:{self.col}: {self.code} {self.message}"


class ParsedFile:
    """One analyzed source file: path, text, AST, comments, suppressions."""

    def __init__(self, path: Path, source: str) -> None:
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=str(path))
        # line number -> full comment text (without the leading '#').
        self.comments: dict[int, str] = {}
        # Lines whose comment is the whole line (only whitespace before
        # it). A marker on the line *above* a statement only counts when
        # standalone — a trailing comment belongs to its own statement.
        self.standalone_comments: set[int] = set()
        source_lines = source.splitlines()
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            for token in tokens:
                if token.type == tokenize.COMMENT:
                    line = token.start[0]
                    text = token.string.lstrip("#").strip()
                    if line in self.comments:
                        self.comments[line] += " " + text
                    else:
                        self.comments[line] = text
                    if (
                        line <= len(source_lines)
                        and not source_lines[line - 1][: token.start[1]].strip()
                    ):
                        self.standalone_comments.add(line)
        except tokenize.TokenError:
            # A file that parses but fails to tokenize would be a CPython
            # bug; degrade to "no comments" rather than crash the run.
            pass
        # line -> None (suppress everything) | set of codes.
        self.noqa: dict[int, set[str] | None] = {}
        for line, text in self.comments.items():
            match = _NOQA_RE.search("# " + text)
            if match is None:
                continue
            codes = match.group("codes")
            if codes is None:
                self.noqa[line] = None
            else:
                existing = self.noqa.get(line)
                parsed = {c for c in codes.split(",") if c}
                if existing is None and line in self.noqa:
                    continue  # already suppress-all
                self.noqa[line] = (existing or set()) | parsed
        # Spans of defs/classes whose header line carries a noqa, so a
        # def-line suppression covers the whole body.
        self._noqa_spans: list[tuple[int, int, set[str] | None]] = []
        for node in ast.walk(self.tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and node.lineno in self.noqa:
                self._noqa_spans.append(
                    (node.lineno, node.end_lineno or node.lineno,
                     self.noqa[node.lineno])
                )

    def comment_on(self, line: int) -> str:
        return self.comments.get(line, "")

    def has_marker(self, line: int, marker: str) -> bool:
        """True if ``line``'s comment (or the previous line's standalone
        comment) contains ``marker``."""
        if marker in self.comment_on(line):
            return True
        return (
            line - 1 in self.standalone_comments
            and marker in self.comment_on(line - 1)
        )

    def is_suppressed(self, finding: Finding) -> bool:
        codes = self.noqa.get(finding.line, ...)
        if codes is None:
            return True
        if codes is not ... and finding.code in codes:
            return True
        for start, end, span_codes in self._noqa_spans:
            if start <= finding.line <= end:
                if span_codes is None or finding.code in span_codes:
                    return True
        return False


class Check:
    """Base class for one invariant checker."""

    code: str = ""
    name: str = ""
    description: str = ""

    def check_file(
        self, parsed: ParsedFile, project: "Project"
    ) -> Iterable[Finding]:
        return ()

    def finding(
        self, parsed: ParsedFile, node: ast.AST | int, message: str,
        col: int | None = None,
    ) -> Finding:
        if isinstance(node, int):
            line, column = node, (col or 0)
        else:
            line, column = node.lineno, node.col_offset
        return Finding(
            file=parsed.path, line=line, col=column,
            code=self.code, message=message,
        )


_REGISTRY: dict[str, type[Check]] = {}


def register(cls: type[Check]) -> type[Check]:
    """Class decorator adding a check to the global registry."""
    if not cls.code:
        raise ValueError(f"check {cls.__name__} has no code")
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate check code {cls.code}")
    _REGISTRY[cls.code] = cls
    return cls


def all_checks() -> dict[str, type[Check]]:
    """code -> check class, with the builtin checks imported."""
    import repro.analysis.checks  # noqa: F401  (registers on import)

    return dict(sorted(_REGISTRY.items()))


# ----------------------------------------------------------------------
# Shared AST helpers used by several checks
# ----------------------------------------------------------------------
def self_attribute_name(node: ast.AST) -> str | None:
    """``self.X`` -> ``"X"`` for a plain attribute access, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def iter_methods(
    class_node: ast.ClassDef,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in class_node.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


@dataclass
class ClassInfo:
    """A dataclass (or __init__-constructed class) seen anywhere in the
    project, with its field names in declaration order — the ground truth
    the protocol-coverage check compares serializers against."""

    name: str
    file: Path
    line: int
    fields: tuple[str, ...]
    is_dataclass: bool
    bases: tuple[str, ...] = ()


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def extract_class_info(node: ast.ClassDef, path: Path) -> ClassInfo:
    """Field table of one class: dataclass AnnAssigns, else __init__ params."""
    is_dc = _is_dataclass_decorated(node)
    fields: list[str] = []
    if is_dc:
        for statement in node.body:
            if isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                fields.append(statement.target.id)
    else:
        for method in iter_methods(node):
            if method.name == "__init__":
                args = method.args
                names = [a.arg for a in args.posonlyargs + args.args]
                fields = names[1:]  # drop self
                fields += [a.arg for a in args.kwonlyargs]
                break
    bases = tuple(
        base.id for base in node.bases if isinstance(base, ast.Name)
    )
    return ClassInfo(
        name=node.name, file=path, line=node.lineno,
        fields=tuple(fields), is_dataclass=is_dc, bases=bases,
    )
