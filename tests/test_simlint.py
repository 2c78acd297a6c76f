"""Unit tests for simlint (tools/simlint): every rule, suppressions, CLI.

Each rule has a fixture file in ``tests/simlint_fixtures/`` containing known
violations marked with ``# expect: SIMxxx`` on the offending line, plus
clean counterparts and a ``# simlint: disable=...`` suppression case.  The
tests assert the reported ``(line, code)`` pairs equal the markers exactly —
so a missed violation, a false positive on the clean code, or a broken
suppression all fail.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from tools.simlint import (  # noqa: E402
    RULES,
    Finding,
    SimlintConfig,
    lint_file,
    lint_paths,
)

FIXTURES = REPO / "tests" / "simlint_fixtures"

_EXPECT_RE = re.compile(r"#\s*expect:\s*(SIM\d+)")

FIXTURE_OF_RULE = {
    "SIM001": "sim001_wall_clock.py",
    "SIM002": "sim002_random.py",
    "SIM003": "sim003_set_iteration.py",
    "SIM004": "sim004_timestamp_eq.py",
    "SIM005": "sim005_mutable_defaults.py",
    "SIM006": "sim006_stats_counters.py",
    "SIM007": "sim007_registry_coverage.py",
    "SIM008": "sim008_observer_purity.py",
}


def expected_markers(path: Path) -> set:
    expected = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        for code in _EXPECT_RE.findall(line):
            expected.add((lineno, code))
    return expected


def reported(path: Path, code: str) -> set:
    rule = RULES[code]()
    findings = lint_file(path, str(path), [rule])
    return {(f.line, f.code) for f in findings}


class TestRegistry:
    def test_at_least_six_rules(self):
        assert len(RULES) >= 6
        assert set(FIXTURE_OF_RULE) <= set(RULES)

    def test_rules_are_documented(self):
        for code, cls in RULES.items():
            rule = cls()
            assert rule.code == code
            assert rule.name, code
            assert rule.rationale, code
            assert rule.default_paths, code


class TestRuleFixtures:
    @pytest.mark.parametrize("code", sorted(FIXTURE_OF_RULE))
    def test_fixture_matches_markers(self, code):
        path = FIXTURES / FIXTURE_OF_RULE[code]
        expected = expected_markers(path)
        assert expected, f"fixture {path.name} has no expect markers"
        assert reported(path, code) == expected

    @pytest.mark.parametrize("code", sorted(FIXTURE_OF_RULE))
    def test_fixture_exercises_suppression(self, code):
        # Every fixture must contain at least one suppressed violation line;
        # the exact-match test above proves it was not reported.
        path = FIXTURES / FIXTURE_OF_RULE[code]
        assert f"simlint: disable={code}" in path.read_text()

    def test_bare_disable_suppresses_all_codes(self, tmp_path):
        source = "import time\nnow = time.time()  # simlint: disable\n"
        path = tmp_path / "snippet.py"
        path.write_text(source)
        assert reported(path, "SIM001") == set()

    def test_unrelated_disable_does_not_suppress(self, tmp_path):
        source = "import time\nnow = time.time()  # simlint: disable=SIM999\n"
        path = tmp_path / "snippet.py"
        path.write_text(source)
        assert reported(path, "SIM001") == {(2, "SIM001")}


class TestFindingOrdering:
    def test_findings_sort_by_location(self):
        a = Finding("x.py", 3, 1, "SIM001", "m")
        b = Finding("x.py", 10, 1, "SIM002", "m")
        assert sorted([b, a]) == [a, b]


class TestConfig:
    def test_repo_config_loads(self):
        config = SimlintConfig.load(REPO / "simlint.toml")
        assert config.root == REPO
        assert "src" in config.include
        assert any("tests" in entry for entry in config.exclude)
        # Every rule scoped in the file exists in the registry.
        assert set(config.rules) <= set(RULES)

    def test_unknown_rule_rejected(self, tmp_path):
        bad = tmp_path / "simlint.toml"
        bad.write_text('[rules.SIM999]\npaths = ["src"]\n')
        with pytest.raises(ValueError, match="SIM999"):
            SimlintConfig.load(bad)

    def test_path_scoping(self, tmp_path):
        config_file = tmp_path / "simlint.toml"
        config_file.write_text(
            "[simlint]\n"
            'include = ["pkg"]\n'
            'exclude = ["pkg/generated"]\n'
            "[rules.SIM001]\n"
            'paths = ["pkg/sim"]\n'
        )
        config = SimlintConfig.load(config_file)
        rule = RULES["SIM001"]()
        assert config.rule_applies(rule, tmp_path / "pkg" / "sim" / "a.py")
        assert not config.rule_applies(rule, tmp_path / "pkg" / "host" / "a.py")
        assert config.is_excluded(tmp_path / "pkg" / "generated" / "a.py")
        assert not config.is_excluded(tmp_path / "pkg" / "sim" / "a.py")


class TestTreeIsClean:
    def test_simulator_tree_has_no_findings(self):
        # The acceptance criterion of the linter PR: the shipped tree lints
        # clean, so CI can fail on any *new* finding.
        config = SimlintConfig.load(REPO / "simlint.toml")
        findings = lint_paths([REPO / "src", REPO / "tools"], config=config)
        assert findings == [], "\n".join(f.render() for f in findings)


class TestCLI:
    def _run(self, *args, cwd=REPO):
        return subprocess.run(
            [sys.executable, "-m", "tools.simlint", *args],
            cwd=cwd,
            capture_output=True,
            text=True,
        )

    def test_exit_zero_on_clean_tree(self):
        result = self._run("src")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_exit_one_and_json_on_findings(self, tmp_path):
        config_file = tmp_path / "simlint.toml"
        config_file.write_text("[rules.SIM005]\npaths = [\"\"]\n")
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    return x\n")
        result = self._run(
            "--config", str(config_file), "--format", "json",
            "--select", "SIM005", str(bad),
        )
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["files_checked"] == 1
        assert [f["code"] for f in payload["findings"]] == ["SIM005"]
        assert payload["findings"][0]["line"] == 1

    def test_exit_two_on_unknown_rule(self):
        result = self._run("--select", "SIM999", "src")
        assert result.returncode == 2
        assert "unknown rule" in result.stderr

    def test_exit_two_on_missing_path(self):
        result = self._run("no/such/dir")
        assert result.returncode == 2

    def test_list_rules(self):
        result = self._run("--list-rules")
        assert result.returncode == 0
        for code in FIXTURE_OF_RULE:
            assert code in result.stdout
