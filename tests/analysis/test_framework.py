"""Framework-level behavior: parsing, suppressions, reporting, the CLI."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, format_finding
from repro.analysis.base import Finding, ParsedFile, all_checks

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def run_cli(*args, cwd=REPO_ROOT):
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


class TestParsedFile:
    def test_trailing_comment_is_not_standalone(self):
        parsed = ParsedFile(Path("x.py"), "a = 1  # guarded-by: self._lock\n")
        assert 1 in parsed.comments
        assert 1 not in parsed.standalone_comments

    def test_standalone_comment_detected(self):
        parsed = ParsedFile(Path("x.py"), "# requires-lock\ndef f():\n    pass\n")
        assert 1 in parsed.standalone_comments
        assert parsed.has_marker(2, "requires-lock")

    def test_trailing_comment_does_not_leak_to_next_line(self):
        # A trailing marker belongs to its own statement; the statement on
        # the next line must not inherit it (the bug class that once made
        # a lock guard itself).
        source = "a = 1  # guarded-by: self._lock\nb = 2\n"
        parsed = ParsedFile(Path("x.py"), source)
        assert parsed.has_marker(1, "guarded-by:")
        assert not parsed.has_marker(2, "guarded-by:")

    def test_noqa_plain_flake8_not_honoured(self):
        parsed = ParsedFile(Path("x.py"), "a = 1  # noqa\n")
        assert parsed.noqa == {}

    def test_noqa_parse_forms(self):
        source = (
            "a = 1  # repro: noqa\n"
            "b = 2  # repro: noqa-RPA101\n"
            "c = 3  # repro: noqa-RPA101,RPA103\n"
        )
        parsed = ParsedFile(Path("x.py"), source)
        assert parsed.noqa[1] is None
        assert parsed.noqa[2] == {"RPA101"}
        assert parsed.noqa[3] == {"RPA101", "RPA103"}

    def test_is_suppressed_code_match(self):
        parsed = ParsedFile(Path("x.py"), "b = 2  # repro: noqa-RPA101\n")
        hit = Finding(Path("x.py"), 1, 0, "RPA101", "m")
        miss = Finding(Path("x.py"), 1, 0, "RPA103", "m")
        assert parsed.is_suppressed(hit)
        assert not parsed.is_suppressed(miss)


class TestReporting:
    def test_finding_render_format(self):
        finding = Finding(Path("src/x.py"), 12, 4, "RPA101", "boom")
        assert format_finding(finding) == "src/x.py:12:4: RPA101 boom"

    def test_syntax_error_surfaces_as_rpa001(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        findings = analyze_paths([bad])
        assert [f.code for f in findings] == ["RPA001"]
        assert "does not parse" in findings[0].message

    def test_findings_sorted_by_location(self):
        findings = analyze_paths([FIXTURES / "rpa101_bad.py"],
                                 select=["RPA101"])
        keys = [(str(f.file), f.line, f.col) for f in findings]
        assert keys == sorted(keys)

    def test_unknown_select_code_rejected(self):
        with pytest.raises(SystemExit, match="unknown check code"):
            analyze_paths([FIXTURES / "rpa101_good.py"], select=["RPA999"])

    def test_registry_has_all_four_checks(self):
        assert set(all_checks()) == {"RPA101", "RPA103"}


class TestCli:
    def test_clean_paths_exit_zero(self):
        result = run_cli(str(FIXTURES / "rpa101_good.py"))
        assert result.returncode == 0, result.stdout + result.stderr

    def test_findings_exit_one_with_locations(self):
        result = run_cli(str(FIXTURES / "rpa101_bad.py"))
        assert result.returncode == 1
        assert "rpa101_bad.py:" in result.stdout
        assert "RPA101" in result.stdout
        assert "finding" in result.stderr  # count summary on stderr

    def test_select_filters_checks(self):
        result = run_cli("--select", "RPA103", str(FIXTURES / "rpa101_bad.py"))
        assert result.returncode == 0

    def test_missing_path_exit_two(self):
        result = run_cli("no/such/dir")
        assert result.returncode == 2

    def test_list_checks(self):
        result = run_cli("--list-checks")
        assert result.returncode == 0
        for code in ("RPA101", "RPA103"):
            assert code in result.stdout
        for code in ("RPA102", "RPA104", "RPA105"):
            assert code not in result.stdout
