"""RPA104: engine parity.

The engine names live as string literals on five surfaces (session
validation, REPL validation, service manager validation, the serve CLI's
``--engine`` choices, the fuzzer's lockstep list). A new engine added to
one surface but not the others "works on my REPL" and silently escapes
differential testing. The canonical lists live in ``repro/core/engines.py``
tagged ``# repro: engine-registry``; every surface literal is tagged
``# repro: engine-surface <role>`` and must agree:

* role ``all``     — exactly the full ``ENGINES`` registry;
* role ``service`` — exactly the ``SERVICE_ENGINES`` registry;
* role ``fuzzer``  — every entry is an engine name or a transport
  from the ``FUZZER_TRANSPORTS`` registry (lockstep participants that
  drive a real engine through another path, e.g. the fleet router);
  together the engine entries exercise every registered engine
  (transports do not count toward coverage).

When the real registry module is among the analyzed files, the check
also loads the known out-of-tree surface files (the fuzzer under
``tests/``) and requires at least one surface per role to exist at all —
so deleting a marker does not silently drop a surface from the audit.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable

from repro.analysis.base import Check, Finding, ParsedFile, register, string_elements
from repro.analysis.config import (
    ENGINE_EXTRA_SURFACE_FILES,
    ENGINE_REGISTRY_FILENAME,
    ENGINE_REGISTRY_MARKER,
    ENGINE_SURFACE_MARKER,
    EXPECTED_SURFACE_ROLES,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.runner import Project


@register
class EngineParityCheck(Check):
    code = "RPA104"
    name = "engine-parity"
    description = (
        "engine-name literals marked '# repro: engine-surface <role>' "
        "agree with the '# repro: engine-registry' canonical lists"
    )

    def finalize(self, project: "Project") -> Iterable[Finding]:
        findings: list[Finding] = []
        registry: dict[str, tuple[list[str], ParsedFile, ast.AST]] = {}
        registry_file: ParsedFile | None = None
        for parsed in project.files.values():
            for node in ast.walk(parsed.tree):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                if not self._has_marker_in_span(parsed, node, ENGINE_REGISTRY_MARKER):
                    continue
                target = (
                    node.targets[0]
                    if isinstance(node, ast.Assign)
                    else node.target
                )
                values = string_elements(node.value) if node.value else None
                if not isinstance(target, ast.Name) or values is None:
                    findings.append(self.finding(
                        parsed, node,
                        "engine-registry marker must sit on a simple "
                        "'NAME = (string, ...)' assignment",
                    ))
                    continue
                registry[target.id] = (values, parsed, node)
                registry_file = parsed
        if not registry:
            return findings  # nothing to compare against in these paths

        full = registry.get("ENGINES")
        if full is None:
            some = next(iter(registry.values()))
            findings.append(self.finding(
                some[1], some[2],
                "engine registry defines no 'ENGINES' tuple (the full set)",
            ))
            return findings
        full_set = set(full[0])
        service = registry.get("SERVICE_ENGINES", full)
        service_set = set(service[0])
        transports = registry.get("FUZZER_TRANSPORTS")
        transport_set = set(transports[0]) if transports is not None else set()

        # The real registry knows about surfaces outside the analyzed
        # roots (the fuzzer lives under tests/).
        is_real = registry_file is not None and (
            registry_file.path.name == ENGINE_REGISTRY_FILENAME
        )
        if is_real:
            repo_root = registry_file.path.resolve().parents[3]
            for relative in ENGINE_EXTRA_SURFACE_FILES:
                project.load_extra(repo_root / relative)

        surfaces: list[tuple[str, list[str], ParsedFile, int]] = []
        every_file = list(project.files.values()) + list(project.extra_files.values())
        for parsed in every_file:
            for line, text in sorted(parsed.comments.items()):
                if ENGINE_SURFACE_MARKER not in text:
                    continue
                remainder = text.split(ENGINE_SURFACE_MARKER, 1)[1].strip()
                role = remainder.split()[0] if remainder else ""
                literal = self._literal_near(parsed, line)
                if literal is None:
                    findings.append(self.finding(
                        parsed, line,
                        "engine-surface marker has no adjacent "
                        "string-literal tuple/list/set of engine names",
                    ))
                    continue
                surfaces.append((role, literal, parsed, line))

        seen_roles: set[str] = set()
        for role, values, parsed, line in surfaces:
            seen_roles.add(role)
            if role == "all":
                findings.extend(self._compare(
                    parsed, line, values, full_set, "ENGINES"))
            elif role == "service":
                findings.extend(self._compare(
                    parsed, line, values, service_set, "SERVICE_ENGINES"))
            elif role == "fuzzer":
                exercised: set[str] = set()
                for value in values:
                    if value in full_set:
                        exercised.add(value)
                        continue
                    if value in transport_set:
                        # A transport drives some engine through another
                        # path (fleet router); legal, but it exercises no
                        # *new* engine, so it adds nothing to coverage.
                        continue
                    findings.append(self.finding(
                        parsed, line,
                        f"fuzzer surface names unknown engine '{value}' "
                        "(not in ENGINES or FUZZER_TRANSPORTS)",
                    ))
                for absent in sorted(full_set - exercised):
                    findings.append(self.finding(
                        parsed, line,
                        f"fuzzer lockstep list never exercises engine "
                        f"'{absent}'",
                    ))
            else:
                findings.append(self.finding(
                    parsed, line,
                    f"unknown engine-surface role '{role}' (expected one of "
                    f"{', '.join(EXPECTED_SURFACE_ROLES)})",
                ))

        if is_real:
            for role in EXPECTED_SURFACE_ROLES:
                if role not in seen_roles:
                    findings.append(self.finding(
                        registry_file, full[2],
                        f"no '# repro: {ENGINE_SURFACE_MARKER.split(': ')[-1]} "
                        f"{role}' surface found in the analyzed paths — a "
                        "surface marker was removed or the paths are wrong",
                    ))
        return findings

    def _has_marker_in_span(
        self, parsed: ParsedFile, node: ast.stmt, marker: str
    ) -> bool:
        lines = list(range(node.lineno, (node.end_lineno or node.lineno) + 1))
        if node.lineno - 1 in parsed.standalone_comments:
            lines.insert(0, node.lineno - 1)
        for line in lines:
            if marker in parsed.comment_on(line):
                return True
        return False

    def _literal_near(self, parsed: ParsedFile, line: int) -> list[str] | None:
        """Smallest all-string literal collection touching the marker line
        (same line, spanning it, or starting on the next line)."""
        best: tuple[int, list[str]] | None = None
        for node in ast.walk(parsed.tree):
            values = string_elements(node)
            if values is None:
                continue
            end = node.end_lineno or node.lineno
            if not (node.lineno <= line <= end or node.lineno == line + 1):
                continue
            size = end - node.lineno
            if best is None or size < best[0]:
                best = (size, values)
        return best[1] if best else None

    def _compare(
        self,
        parsed: ParsedFile,
        line: int,
        values: list[str],
        expected: set[str],
        registry_name: str,
    ) -> Iterable[Finding]:
        actual = set(values)
        for missing in sorted(expected - actual):
            yield self.finding(
                parsed, line,
                f"engine surface is missing '{missing}' from {registry_name}",
            )
        for extra in sorted(actual - expected):
            yield self.finding(
                parsed, line,
                f"engine surface names '{extra}' which is not in "
                f"{registry_name}",
            )
