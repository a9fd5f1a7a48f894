"""Each invariant check against its fixtures: bad fires, good stays
silent, suppressions are honoured."""

import shutil
from pathlib import Path

from repro.analysis import analyze_paths

FIXTURES = Path(__file__).parent / "fixtures"


def run(code, *names):
    return analyze_paths([FIXTURES / name for name in names], select=[code])


def messages(findings):
    return [f.message for f in findings]


class TestLockDiscipline:
    def test_bad_fixture_fires(self):
        findings = run("RPA101", "rpa101_bad.py")
        assert len(findings) == 3
        assert all(f.code == "RPA101" for f in findings)
        texts = "\n".join(messages(findings))
        # The unguarded read, the post-release write, and the nested def.
        assert texts.count("'self.value'") == 2
        assert texts.count("'self.events'") == 1

    def test_bad_fixture_locations(self):
        findings = run("RPA101", "rpa101_bad.py")
        source = (FIXTURES / "rpa101_bad.py").read_text().splitlines()
        for finding in findings:
            assert finding.file.name == "rpa101_bad.py"
            line = source[finding.line - 1]
            assert "self.value" in line or "self.events" in line

    def test_good_fixture_silent(self):
        assert run("RPA101", "rpa101_good.py") == []

    def test_suppressions_honoured(self):
        assert run("RPA101", "rpa101_suppressed.py") == []


class TestProtocolCoverage:
    def test_bad_fixture_fires(self):
        findings = run("RPA103", "rpa103_bad")
        texts = messages(findings)
        assert len(findings) == 6
        assert any("branch for 'Point' never reads field 'label'" in t
                   for t in texts)
        assert any("constructs 'Point' without field 'label'" in t
                   for t in texts)
        assert any("serializes 'Box'" in t and "never constructs it" in t
                   for t in texts)
        assert any("no matching 'orphan_from_json'" in t for t in texts)
        assert any("'Envelope.to_json' never reads field 'body'" in t
                   for t in texts)
        assert any("without field 'body'" in t for t in texts)

    def test_good_fixture_silent(self):
        assert run("RPA103", "rpa103_good") == []

    def test_only_protocol_files_participate(self, tmp_path):
        # The same drifted serializers under another file name are out of
        # scope: the check audits serializer modules, not all code.
        shutil.copy(FIXTURES / "rpa103_bad" / "protocol.py",
                    tmp_path / "serializers.py")
        assert analyze_paths([tmp_path], select=["RPA103"]) == []

