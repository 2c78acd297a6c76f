"""Unit tests for simlint (tools/simlint): every rule, suppressions, CLI.

Each rule has a fixture file in ``tests/simlint_fixtures/`` containing known
violations marked with ``# expect: SIMxxx`` on the offending line, plus
clean counterparts and a ``# simlint: disable=...`` suppression case.  The
tests assert the reported ``(line, code)`` pairs equal the markers exactly —
so a missed violation, a false positive on the clean code, or a broken
suppression all fail.
"""

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
        # Exactly these seven, each with a fixture; SIM007's contract is
        # enforced at run time (tests/test_telemetry.py::TestCounterRegistry).
        assert sorted(RULES) == [
            "SIM001", "SIM002", "SIM003", "SIM004", "SIM005", "SIM006", "SIM008",
        ]
        assert set(FIXTURE_OF_RULE) == set(RULES)

    def test_rules_are_documented(self):
        for code, cls in RULES.items():
            rule = cls()
            assert rule.code == code
            assert rule.name, code
            assert rule.rationale, code


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


def write_config(directory: Path, exclude=(), **scopes) -> Path:
    """A ``simlint.toml`` scoping every rule nowhere except ``scopes``."""
    lines = ["[simlint]", f"exclude = {list(exclude)!r}"]
    for code in sorted(RULES):
        lines += [f"[rules.{code}]", f"paths = {list(scopes.get(code, ()))!r}"]
    path = directory / "simlint.toml"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestConfig:
    def test_repo_config_loads(self):
        config = SimlintConfig.load(REPO / "simlint.toml")
        assert config.root == REPO
        assert any("tests" in entry for entry in config.exclude)
        # The file is the only place a scope lives: it scopes every rule.
        assert set(config.rules) == set(RULES)
        assert all(config.rules.values())

    def test_unknown_rule_rejected(self, tmp_path):
        bad = write_config(tmp_path)
        bad.write_text(bad.read_text() + '[rules.SIM999]\npaths = ["src"]\n')
        with pytest.raises(ValueError, match="SIM999"):
            SimlintConfig.load(bad)

    def test_unscoped_rule_rejected(self, tmp_path):
        # No per-class fallback scope: a rule the file does not scope is a
        # config error, not a rule that silently runs somewhere (or nowhere).
        partial = tmp_path / "simlint.toml"
        partial.write_text('[rules.SIM001]\npaths = ["pkg/sim"]\n')
        with pytest.raises(ValueError, match=r"SIM002 has no \[rules.SIM002\] paths"):
            SimlintConfig.load(partial)

    def test_discover_without_a_config_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no simlint.toml"):
            SimlintConfig.discover(tmp_path)

    def test_path_scoping(self, tmp_path):
        config = SimlintConfig.load(
            write_config(tmp_path, exclude=["pkg/generated"], SIM001=["pkg/sim"])
        )
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
        findings, files, errors = lint_paths([REPO / "src", REPO / "tools"], config)
        assert files > 0 and errors == []
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

    def test_exit_one_on_findings(self, tmp_path):
        # The config is the one found above the linted path.
        write_config(tmp_path, SIM005=[""])
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    return x\n")
        result = self._run(str(bad))
        assert result.returncode == 1
        assert result.stdout.splitlines() == [
            "bad.py:1:9: SIM005 mutable default argument is shared across calls; "
            "default to None and create inside the function"
        ]
        assert "1 files checked, 1 finding(s)" in result.stderr

    def test_exit_two_on_syntax_error_still_lints_the_rest(self, tmp_path):
        write_config(tmp_path, SIM005=[""])
        (tmp_path / "bad.py").write_text("def f(x=[]):\n    return x\n")
        (tmp_path / "broken.py").write_text("def f(:\n")
        result = self._run(str(tmp_path))
        assert result.returncode == 2
        assert "broken.py: syntax error" in result.stderr
        assert "bad.py:1:9: SIM005" in result.stdout

    def test_exit_two_on_missing_config(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        result = self._run(str(tmp_path / "ok.py"))
        assert result.returncode == 2
        assert "no simlint.toml" in result.stderr

    def test_exit_two_on_missing_path(self):
        result = self._run("no/such/dir")
        assert result.returncode == 2

    def test_exit_two_without_paths(self):
        assert self._run().returncode == 2

    def test_list_rules(self):
        result = self._run("--list-rules")
        assert result.returncode == 0
        for code in FIXTURE_OF_RULE:
            assert code in result.stdout
