"""Smoke test for the benchmark: a few ops of every workload.

    python3 -m pytest perfbench/test_smoke.py

The tier-1 suite collects only tests/, so this runs on request. The TCP
cases spawn ``pakelab serve`` on loopback.
"""

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run  # noqa: E402
from perfbench.tracing import LAYER_UNITS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# printed on every untraced run, beside the metrics BENCHMARK.json names
PRINTED = {"failed_ratio": "ratio"}
PRINTED_ON = {
    "tcp-login": {"server_peak_rss_mb": "MB"},
    "tcp-enroll": {"server_peak_rss_mb": "MB", "login_p50_ms": "ms",
                   "register_p50_ms": "ms"},
}
MAX_OPS = {"inmem-desk": 8, "inmem-modp2048": 2, "tcp-login": 8, "tcp-enroll": 16}


def printed_metrics(text: str) -> dict:
    return {m.group(1): (float(m.group(2)), m.group(3)) for m in re.finditer(
        r"^metric (\S+) = (\S+) (\S+)", text, re.MULTILINE)}


def test_benchmark_json_names_what_the_runner_prints():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == LAYER_UNITS
    # inmem-desk runs on request only: it is too unsteady to gate on
    gated = [w["name"] for w in BENCHMARK["workloads"]]
    assert gated == [name for name in run.WORKLOAD_NAMES if name != "inmem-desk"]
    assert set(MAX_OPS) == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", list(MAX_OPS))
def test_every_end_to_end_metric_is_printed_with_its_unit(workload, capsys):
    result = run.bench(workload, seed=3, seconds=60, trace=False,
                       max_ops=MAX_OPS[workload])
    printed = printed_metrics(capsys.readouterr().out)
    expected = {**run.END_TO_END, **PRINTED, **PRINTED_ON.get(workload, {})}
    for name, unit in expected.items():
        assert name in printed, name
        assert printed[name][1] == unit, name
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == MAX_OPS[workload]
    for name, unit in run.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0


def test_wrong_password_login_is_counted_not_dropped(capsys):
    result = run.bench("tcp-login", seed=4, seconds=60, trace=False, max_ops=6,
                       bad_logins=1)
    printed = printed_metrics(capsys.readouterr().out)
    assert result["attempted"] == 6
    assert result["failed"] == 1
    # the refusal is the expected outcome of that login, so the run is correct
    assert result["correct"]
    assert printed["failed_ratio"][0] == pytest.approx(1 / 6, rel=1e-5)


def test_traced_run_prints_every_layer_metric(capsys):
    result = run.bench("tcp-enroll", seed=5, seconds=4, trace=True, max_ops=16)
    printed = printed_metrics(capsys.readouterr().out)
    assert result["correct"]
    assert set(result["metrics"]) == set(LAYER_UNITS)
    for name, unit in LAYER_UNITS.items():
        assert printed[name][1] == unit, name
    # both processes traced: client encode calls and server store lookups
    assert printed["netio.frames.encode_frame.calls_per_frame_sent"][0] > 0
    assert printed["netio.store.records_for.us_per_call"][0] > 0
    assert printed["trace.overhead_ratio"][0] > 0
