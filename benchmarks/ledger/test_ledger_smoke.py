"""Tiny-scale smoke test of the perf ledger (collected by the tier-1 command).

Every workload at about 1% size, in process: the ledger must produce every
named metric exactly once, the traced pass must reproduce the untraced
simulated metrics and account for the whole traced replay, and the inputs
must be a function of the seed alone.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.ledger import compare, spec, tracing
from benchmarks.ledger.ledger import MIN_REPEATS, RUN_SECONDS, driver_result, run_ledger
from benchmarks.ledger.measure import run_task
from benchmarks.ledger.workloads import prepare

SCALE = 0.01
SEED = 7
BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.fixture(scope="module")
def document():
    # One untraced repeat per workload keeps this under ten seconds; the
    # repeat loop has its own test below.
    return run_ledger(
        SEED, seconds=0.0, end_to_end=False, scale=SCALE, micro_slice_s=0.0, child=run_task
    )


def test_every_named_metric_exactly_once(document):
    assert document["problems"] == []
    assert list(document["workloads"]) == list(spec.WORKLOADS)
    for result in document["workloads"].values():
        assert list(result["end_to_end"]) == [metric.name for metric in spec.END_TO_END]
        assert list(result["per_layer"]) == [metric.name for metric in spec.PER_LAYER]
        assert result["end_to_end"]["ops_failed_share"]["value"] == 0.0
        assert result["end_to_end"]["ops_failed_share"]["attempted"] > 0
        assert all(entry["n"] == 1 for entry in result["end_to_end"].values())
    names = [m.name for m in spec.END_TO_END] + [m.name for m in spec.PER_LAYER]
    assert len(names) == len(set(names))


def test_traced_pass_accounts_for_the_replay(document):
    # per_layer_of() already failed the run (document["problems"]) had the
    # traced pass moved a simulated metric; here the intended contrasts.
    layers = {name: result["per_layer"] for name, result in document["workloads"].items()}
    for name, values in layers.items():
        assert values["bench.attributed_share"] >= spec.MIN_ATTRIBUTED_SHARE, name
        host_time = values["host.frontend_self_s"] + values["host.arbiter_self_s"]
        assert (host_time > 0) == (name == "tenants_wrr")
    assert layers["seq_stream"]["sim.events_per_io"] == 0.0
    assert layers["steady_mixed"]["sim.events_per_io"] > 0.0
    assert layers["tenants_wrr"]["host.arbiter_picks"] > 0
    assert layers["steady_mixed"]["obs.sim_metrics_unchanged"] == 1.0


def test_repeats_go_on_until_enough_replay_is_measured():
    document = run_ledger(
        SEED, ["seq_stream"], seconds=0.0, per_layer=False, scale=SCALE, child=run_task
    )
    assert document["problems"] == []
    for entry in document["workloads"]["seq_stream"]["end_to_end"].values():
        assert entry["n"] == (MIN_REPEATS if entry["clock"] == "host" else 1)


def test_inputs_are_a_function_of_the_seed(document):
    # One seed: the untraced and the traced pass are two in-process runs of
    # it, and per_layer_of() reports a digest or a simulated metric that
    # differs between them.  Another seed: other request lists.
    assert document["problems"] == []
    for name in spec.WORKLOADS:
        assert prepare(name, SEED + 1, SCALE).digest != document["digests"][name]


def test_driver_output_matches_benchmark_json(document):
    declared = json.loads(BENCHMARK_JSON.read_text())
    assert declared["paths"] == ["benchmarks/ledger"]
    assert declared["run_seconds"] == RUN_SECONDS
    assert {w["name"] for w in declared["workloads"]} == set(spec.WORKLOADS)
    gated = {m["name"]: m for m in declared["end_to_end"]}
    assert set(gated) == {m.name for m in spec.END_TO_END} - set(spec.ZERO_VALUED)
    for name, entry in gated.items():
        definition = spec.END_TO_END_BY_NAME[name]
        assert (entry["unit"], entry["better"]) == (definition.unit, definition.better)
        assert entry["bound"] == definition.bound
    layered = {m["name"]: m for m in declared["per_layer"]}
    assert set(layered) == set(spec.PER_LAYER_BY_NAME) | set(spec.ZERO_VALUED)

    plain = driver_result(document, "seq_stream", trace=False)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert set(plain["metrics"]) == set(gated)
    assert all(plain["metrics"][n]["unit"] == gated[n]["unit"] for n in gated)
    traced = driver_result(document, "read_lookup", trace=True)
    assert set(traced["metrics"]) == set(layered)
    assert all(traced["metrics"][n]["unit"] == layered[n]["unit"] for n in layered)
    e2e = document["workloads"]["read_lookup"]["end_to_end"]
    assert e2e["exact_prediction_ratio"]["value"] == 1.0 - e2e["misprediction_ratio"]["value"] < 1.0


def test_compare_flags_regressions_and_refuses_other_inputs(document):
    rows = compare.compare(document, document)
    assert {row["status"] for row in rows} <= {compare.OK, compare.UNRESOLVED}
    assert len(rows) == len(spec.END_TO_END) * len(spec.WORKLOADS)

    slower = json.loads(json.dumps(document))
    entry = slower["workloads"]["seq_stream"]["end_to_end"]["waf"]
    entry.update(value=entry["value"] * 1.5, q1=entry["q1"] * 1.5, q3=entry["q3"] * 1.5)
    regressed = [r for r in compare.compare(document, slower) if r["status"] == compare.REGRESSION]
    assert [(r["metric"], r["workload"]) for r in regressed] == [("waf", "seq_stream")]

    other = json.loads(json.dumps(document))
    other["digests"]["seq_stream"] = "0" * 64
    with pytest.raises(compare.Incomparable):
        compare.compare(document, other)


def test_tracer_restores_the_classes_when_install_fails(monkeypatch):
    original = vars(tracing.LeaFTL)["update_batch"]
    broken = (tracing.LeaFTL, ("no_such_method",), "core.learn_self_s", tracing.PLAIN)
    monkeypatch.setattr(tracing, "WRAPPED", tracing.WRAPPED + (broken,))
    with pytest.raises(KeyError):
        with tracing.LayerTracer().installed():
            pass
    assert vars(tracing.LeaFTL)["update_batch"] is original
