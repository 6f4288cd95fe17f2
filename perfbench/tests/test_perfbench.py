"""Tests of the benchmark itself, at tiny sizes (passes of one to six items).

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

workloads = run.import_workloads()

import numpy as np  # noqa: E402
import paleyzyg  # noqa: E402
from recorder import Recorder, is_traced  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def check():
    return workloads.Checker()


def test_benchmark_json_names_the_runner_workloads_and_metrics():
    spec = _spec()
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for name, q in run.TAIL_PERCENTILE.items():
        why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
        assert f"p{q}" in why


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_printed_metrics_match_benchmark_json(workload, trace, capsys):
    run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
              "--trace", str(trace), "--small"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    env = json.loads(lines[-2])["env"]
    assert {"python", "numpy", "scipy", "using_numba", "blas", "nproc", "l2_bytes",
            "l3_bytes", "git_rev"} <= set(env)


def _traced_pass(name, check):
    rec = Recorder()
    try:
        rec.install(paleyzyg)
        start = time.perf_counter()
        with rec.item("setup"):
            wl = workloads.build(name, 0, small=True, reference=check.reference)
        res = run.run_passes(wl, check, passes=1, recorder=rec)
        wall = time.perf_counter() - start
    finally:
        rec.uninstall()
    return rec, res, wall


@pytest.mark.parametrize("workload, top", [("rline", "kernels.nudft"), ("grid", None),
                                           ("moments", "kernels.best_phase_pow")])
def test_self_times_sum_to_at_most_the_traced_wall(workload, top, check):
    rec, res, wall = _traced_pass(workload, check)
    assert res.failed == 0
    totals = rec.totals()
    self_times = [self_s for _, self_s in totals.values()]
    assert min(self_times) >= 0.0
    assert sum(self_times) <= wall
    if top is None:
        assert not any(name.startswith("kernels.") for name in totals)
    else:
        assert max(totals, key=lambda name: totals[name][1]) == top


def _bindings():
    """Every attribute of the package's modules and classes, and of numpy.fft."""
    out = {}
    owners = [np.fft] + [m for n, m in sys.modules.items()
                         if m is not None and n.split(".")[0] == "paleyzyg"]
    for owner in list(owners):
        owners += [v for v in vars(owner).values()
                   if isinstance(v, type) and v.__module__.startswith("paleyzyg")]
    for owner in owners:
        for attr, obj in vars(owner).items():
            out[(id(owner), attr)] = obj
    return out


def test_untraced_run_after_traced_sees_every_name_restored(check):
    before = _bindings()
    rec = Recorder()
    try:
        rec.install(paleyzyg)
        # names bound by import in other modules are rebound too
        for obj in (paleyzyg.extremals.synthesize, paleyzyg.zygmund.synthesize,
                    paleyzyg.growth.next_pow2, paleyzyg.mu_l2_sq, paleyzyg._kernels.nudft,
                    paleyzyg.PaleyMeasure.block_nodes, paleyzyg.TrigPoly.__init__,
                    np.fft.ifft):
            assert is_traced(obj)
    finally:
        rec.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(is_traced(obj) for obj in after.values())

    rec, _, _ = _traced_pass("grid", check)
    assert not any(is_traced(obj) for obj in _bindings().values())
    spans = len(rec.spans)
    wl = workloads.build("grid", 0, small=True, reference=check.reference)
    res = run.run_passes(wl, check, passes=1)
    assert res.failed == 0 and len(rec.spans) == spans


def test_checker_rejects_a_value_off_by_more_than_the_tolerance(check):
    key = "grid/ingham/10"
    want = check.reference[key]
    assert check(key, list(want))
    assert not check(key, [want[0] * (1 + 1e-9)])
    assert not check(key, None)
    assert not check("grid/no-such-item", list(want))


def test_reference_reproduces_the_frozen_snapshots(check):
    assert check.snapshots_ok()
    assert len(check.snapshots) == 2


def test_inputs_follow_the_seed(check):
    a = workloads.build("grid", 7, reference=check.reference)
    b = workloads.build("grid", 7, reference=check.reference)
    c = workloads.build("grid", 8, reference=check.reference)
    assert a.order == b.order and a.order != c.order
    first = a.pass_items(0)[0].key
    assert first == c.pass_items(0)[0].key and first in check.snapshots


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rline",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
