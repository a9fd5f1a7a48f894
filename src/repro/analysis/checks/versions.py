"""RPA105: mutation-version discipline.

``InstanceGraph`` hands its mutation counter (``self._version``) to every
derived structure that memoizes over the graph — attribute indexes,
``GraphStatistics``, ``PrefixStore`` entries, the plan cache. A
mutator that forgets to bump the version leaves those caches serving
stale answers with no failing assertion anywhere near the bug.

Attributes assigned in ``__init__`` with a ``# versioned-state`` comment
are the logical state; any *other* method that mutates one (subscript or
attribute assignment, ``del``, or a mutating container-method call such
as ``.append``/``.setdefault``/``.update``) must, somewhere in its body,
bump ``self._version`` or call an invalidation helper
(``_invalidate_indexes``).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.analysis.base import Check, Finding, ParsedFile, iter_methods, register
from repro.analysis.base import self_attribute_name
from repro.analysis.config import (
    MUTATOR_METHOD_NAMES,
    VERSION_ATTRIBUTE,
    VERSION_BUMP_HELPERS,
    VERSIONED_STATE_MARKER,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.runner import Project


def _chain_self_attr(node: ast.AST) -> str | None:
    """Nearest ``self.X`` along an attribute/subscript/call chain."""
    while True:
        attr = self_attribute_name(node)
        if attr is not None:
            return attr
        if isinstance(node, ast.Attribute):
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        else:
            return None


def _target_self_attr(node: ast.AST) -> str | None:
    """``self.X`` / ``self.X[k]`` assignment-target -> ``"X"``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return self_attribute_name(node)


@register
class MutationVersionCheck(Check):
    code = "RPA105"
    name = "mutation-version-discipline"
    description = (
        "methods mutating '# versioned-state' attributes bump "
        "'self._version' or call an invalidation helper"
    )

    def check_file(
        self, parsed: ParsedFile, project: "Project"
    ) -> Iterable[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(parsed.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(parsed, node))
        return findings

    def _versioned_attrs(
        self, parsed: ParsedFile, class_node: ast.ClassDef
    ) -> set[str]:
        versioned: set[str] = set()
        for method in iter_methods(class_node):
            if method.name != "__init__":
                continue
            for statement in ast.walk(method):
                if not isinstance(statement, (ast.Assign, ast.AnnAssign)):
                    continue
                lines = list(range(
                    statement.lineno,
                    (statement.end_lineno or statement.lineno) + 1,
                ))
                if statement.lineno - 1 in parsed.standalone_comments:
                    lines.insert(0, statement.lineno - 1)
                if not any(
                    VERSIONED_STATE_MARKER in parsed.comment_on(line)
                    for line in lines
                ):
                    continue
                targets = (
                    statement.targets
                    if isinstance(statement, ast.Assign)
                    else [statement.target]
                )
                for target in targets:
                    attr = self_attribute_name(target)
                    if attr is not None:
                        versioned.add(attr)
        return versioned

    def _check_class(
        self, parsed: ParsedFile, class_node: ast.ClassDef
    ) -> Iterator[Finding]:
        versioned = self._versioned_attrs(parsed, class_node)
        if not versioned:
            return
        for method in iter_methods(class_node):
            if method.name == "__init__":
                continue
            mutations: list[tuple[ast.AST, str]] = []
            bumps = False
            for node in ast.walk(method):
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        attr = _target_self_attr(target)
                        if attr == VERSION_ATTRIBUTE:
                            bumps = True
                        elif attr in versioned:
                            mutations.append((node, attr))
                elif isinstance(node, ast.Delete):
                    for target in node.targets:
                        attr = _target_self_attr(target)
                        if attr in versioned:
                            mutations.append((node, attr))
                elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    if (
                        node.func.attr in VERSION_BUMP_HELPERS
                        and self_attribute_name(node.func) is not None
                    ):
                        bumps = True
                    elif node.func.attr in MUTATOR_METHOD_NAMES:
                        attr = _chain_self_attr(node.func.value)
                        if attr in versioned:
                            mutations.append((node, attr))
            if mutations and not bumps:
                node, attr = mutations[0]
                yield self.finding(
                    parsed, node,
                    f"'{class_node.name}.{method.name}' mutates versioned "
                    f"state 'self.{attr}' without bumping "
                    f"'self.{VERSION_ATTRIBUTE}' or calling "
                    f"{' / '.join(sorted(VERSION_BUMP_HELPERS))} — "
                    "version-keyed caches would go stale",
                )
