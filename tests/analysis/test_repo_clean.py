"""The analyzer gate over the real repo, plus mutation sanity.

The acceptance bar for the suite is twofold: the annotated repo lints
clean (the CI gate), and the checks actually *hold the line* — deleting
one lock guard or one protocol field serializer must make lint fail.
The mutation tests prove the second half against copies of the real
sources, so the gate can never silently degrade into a no-op.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import analyze_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def test_repo_lints_clean():
    """`python -m repro.analysis src examples benchmarks` exits 0 — the
    exact command the CI lint job runs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src", "examples",
         "benchmarks"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.fixture
def src_copy(tmp_path):
    target = tmp_path / "src"
    shutil.copytree(SRC, target,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return target


class TestMutationSanity:
    def test_unmutated_copy_is_clean(self, src_copy):
        findings = analyze_paths([src_copy], select=["RPA101", "RPA103"])
        assert findings == []

    def test_deleting_a_lock_guard_fails_lint(self, src_copy):
        manager = src_copy / "repro" / "service" / "manager.py"
        source = manager.read_text()
        assert "with self._lock:" in source
        manager.write_text(source.replace("with self._lock:", "if True:"))
        findings = analyze_paths([manager], select=["RPA101"])
        assert findings, "removing the lock guards must trip RPA101"
        assert all(f.code == "RPA101" for f in findings)
        assert any("guarded by 'self._lock'" in f.message for f in findings)

    def test_deleting_a_protocol_field_serializer_fails_lint(self, src_copy):
        protocol = src_copy / "repro" / "service" / "protocol.py"
        source = protocol.read_text()
        sort_line = ('        "sort": list(entry.sort) '
                     "if entry.sort is not None else None,\n")
        assert sort_line in source, "serializer line moved; update the test"
        protocol.write_text(source.replace(sort_line, ""))
        findings = analyze_paths([src_copy], select=["RPA103"])
        assert any(
            "'history_entry_to_json' never reads field 'sort'" in f.message
            for f in findings
        ), [f.message for f in findings]
