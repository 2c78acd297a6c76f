"""``python -m repro.obs`` CLI tests: exit codes and artifact error paths.

The CLI contract the CI recipes rely on: 0 on success, 1 on failed
checks, 2 on unusable input (argparse rejections and
:class:`repro.obs.analyze.ArtifactError` alike).  The artifacts here are
synthesized by hand — no simulator run needed — so the error paths stay
fast and point at exactly one malformed thing at a time.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from repro.obs.analyze import ArtifactError, load_artifacts
from repro.obs.__main__ import main

#: One R request span (queue wait 40us, device 60us with a breakdown)
#: plus the track metadata the span extractor keys on.
TRACE_EVENTS = [
    {"ph": "M", "name": "thread_name", "pid": 1, "tid": 100,
     "args": {"name": "io-slot-0"}},
    {"ph": "B", "name": "R", "pid": 1, "tid": 100, "ts": 10.0,
     "args": {"queue": "reader", "queue_wait_us": 40.0, "device_us": 60.0,
              "breakdown": {"translate_us": 10.0, "nand_us": 50.0}}},
    {"ph": "E", "name": "R", "pid": 1, "tid": 100, "ts": 70.0},
]


def write_artifacts(dirpath: Path, counters=None) -> Path:
    dirpath.mkdir(parents=True, exist_ok=True)
    (dirpath / "trace.json").write_text(
        json.dumps({"traceEvents": TRACE_EVENTS})
    )
    (dirpath / "metrics.json").write_text(
        json.dumps(
            {
                "interval_us": 1000.0,
                "columns": ["time_us", "free_blocks"],
                "series": {"time_us": [0.0, 1000.0], "free_blocks": [8.0, 6.0]},
            }
        )
    )
    (dirpath / "counters.json").write_text(
        json.dumps(counters or {"ssd.host_read_pages": 2.0, "ssd.host_write_pages": 4.0})
    )
    return dirpath


class TestAnalyzeCommand:
    def test_happy_path_writes_reports(self, tmp_path, capsys):
        run_dir = write_artifacts(tmp_path / "run")
        out = tmp_path / "out"
        assert main(["analyze", str(run_dir), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == "repro.obs.analyze/1"
        assert report["requests"]["requests"] == 1
        assert (out / "report.md").read_text().startswith("# Device report")
        assert "p99" in capsys.readouterr().out

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_empty_directory_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["analyze", str(empty)]) == 2
        assert "no telemetry artifacts" in capsys.readouterr().err

    def test_truncated_trace_exits_2(self, tmp_path, capsys):
        run_dir = write_artifacts(tmp_path / "run")
        full = (run_dir / "trace.json").read_text()
        (run_dir / "trace.json").write_text(full[: len(full) // 2])
        assert main(["analyze", str(run_dir)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_trace_without_events_list_exits_2(self, tmp_path, capsys):
        run_dir = write_artifacts(tmp_path / "run")
        (run_dir / "trace.json").write_text(json.dumps({"traceEvents": "oops"}))
        assert main(["analyze", str(run_dir)]) == 2
        assert "traceEvents" in capsys.readouterr().err


class TestDiffCommand:
    def test_self_diff_is_quiet_and_zero(self, tmp_path, capsys):
        run_dir = write_artifacts(tmp_path / "run")
        out = tmp_path / "out"
        assert main(["diff", str(run_dir), str(run_dir), "--out", str(out)]) == 0
        diff = json.loads((out / "diff.json").read_text())
        assert diff["significant"] is False
        assert diff["counters"]["changed"] == []
        assert "0 of" in capsys.readouterr().out

    def test_diff_reports_moved_counters(self, tmp_path, capsys):
        base = write_artifacts(tmp_path / "a")
        current = write_artifacts(
            tmp_path / "b", counters={"ssd.host_read_pages": 3.0, "ssd.host_write_pages": 4.0}
        )
        assert main(["diff", str(base), str(current)]) == 0
        assert "ssd.host_read_pages" in capsys.readouterr().out

    def test_diff_without_counters_exits_2(self, tmp_path, capsys):
        base = write_artifacts(tmp_path / "a")
        current = write_artifacts(tmp_path / "b")
        (current / "counters.json").unlink()
        assert main(["diff", str(base), str(current)]) == 2
        assert "counters.json" in capsys.readouterr().err


class TestArgparseRejections:
    def test_unknown_scenario_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--scenario", "bogus", "--out", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["explode"])
        assert excinfo.value.code == 2


class TestCheckCommand:
    def test_truncated_trace_fails_check(self, tmp_path, capsys):
        run_dir = write_artifacts(tmp_path / "run")
        full = (run_dir / "trace.json").read_text()
        (run_dir / "trace.json").write_text(full[: len(full) // 2])
        assert main(["check", str(run_dir / "trace.json")]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_unbalanced_trace_fails_check(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "trace.json").write_text(
            json.dumps({"traceEvents": TRACE_EVENTS[:2]})
        )
        assert main(["check", str(run_dir / "trace.json")]) == 1
        assert "unclosed" in capsys.readouterr().err


    def test_clean_trace_and_metrics_pass_check(self, tmp_path, capsys):
        run_dir = write_artifacts(tmp_path / "run")
        trace, metrics = str(run_dir / "trace.json"), str(run_dir / "metrics.json")
        assert main(["check", trace, metrics]) == 0
        assert "metrics schema ok" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "payload, complaint",
        [
            ({"series": {"time_us": [0.0, 1000.0, 1000.0]}}, "does not increase"),
            (
                {"series": {"time_us": [0.0, 1000.0], "free_blocks": [8.0]}},
                "'free_blocks' has 1 samples, time_us has 2",
            ),
            ({"series": {"time_us": []}}, "no time_us samples"),
            ({"series": {"free_blocks": [8.0]}}, "no time_us samples"),
            ({"columns": ["time_us"]}, "no series object"),
            ({"series": [0.0, 1000.0]}, "no series object"),
        ],
    )
    def test_malformed_metrics_fail_check(self, tmp_path, capsys, payload, complaint):
        run_dir = write_artifacts(tmp_path / "run")
        (run_dir / "metrics.json").write_text(json.dumps(payload))
        trace, metrics = str(run_dir / "trace.json"), str(run_dir / "metrics.json")
        assert main(["check", trace, metrics]) == 1
        captured = capsys.readouterr()
        assert complaint in captured.err
        assert metrics in captured.err

    def test_truncated_metrics_fail_check(self, tmp_path, capsys):
        run_dir = write_artifacts(tmp_path / "run")
        (run_dir / "metrics.json").write_text('{"series": {"time_us": [0.0')
        trace, metrics = str(run_dir / "trace.json"), str(run_dir / "metrics.json")
        assert main(["check", trace, metrics]) == 1
        assert "invalid JSON" in capsys.readouterr().err


class TestLoadArtifacts:
    def test_partial_directory_loads_what_exists(self, tmp_path):
        run_dir = write_artifacts(tmp_path / "run")
        (run_dir / "metrics.json").unlink()
        artifacts = load_artifacts(str(run_dir))
        assert artifacts["metrics"] is None
        assert artifacts["trace_events"] is not None
        assert artifacts["counters"] is not None

    def test_malformed_counters_raises(self, tmp_path):
        run_dir = write_artifacts(tmp_path / "run")
        (run_dir / "counters.json").write_text("[1, 2, 3]")
        with pytest.raises(ArtifactError, match="not a counter mapping"):
            load_artifacts(str(run_dir))
