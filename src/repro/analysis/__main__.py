"""CLI: ``python -m repro.analysis [paths...]``.

Exits 0 on a clean run, 1 when findings survive suppression — so a CI
job can gate on the process status alone.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.base import all_checks
from repro.analysis.runner import analyze_paths, format_finding


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Run the repo's AST invariant checks (RPA101, RPA103).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--select", metavar="CODES",
        help="comma-separated check codes to run (default: all)",
    )
    parser.add_argument(
        "--list-checks", action="store_true",
        help="print the check catalog and exit",
    )
    args = parser.parse_args(argv)

    if args.list_checks:
        for code, cls in all_checks().items():
            print(f"{code}  {cls.name}: {cls.description}")
        return 0

    select = None
    if args.select:
        select = [code.strip() for code in args.select.split(",") if code.strip()]

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    findings = analyze_paths(args.paths, select=select)
    for finding in findings:
        print(format_finding(finding))
    if findings:
        count = len(findings)
        print(f"{count} finding{'s' if count != 1 else ''}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
