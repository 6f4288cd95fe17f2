#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload rline --seed 0 --seconds 20 --trace 0

Workloads: rline, grid, moments (see workloads.py), or ``all`` to run the
three in turn.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run; the last line of
standard output is always one JSON object with the keys correct, attempted,
failed and metrics.  The line before it records the environment.

Untraced run: nine fresh interpreters each import paleyzyg, build the
workload's inputs and run its first item (setup_s, first_item_s: medians).
They run one after another, two in each gap before, between and after the
main process's passes, outside its timing.  The main process builds the
inputs, runs pass 0 untimed to warm up, runs whole passes until
``--seconds`` have elapsed, and runs the first two items of pass 0 again,
which must give bit-identical outputs.

Traced run: after the untimed pass 0, whole passes for half of ``--seconds``
untraced, then the same passes again with every public callable of paleyzyg
wrapped by ``recorder.Recorder``; the difference of the two walls is the
tracing overhead.  For rline it also runs one pass in a child whose BLAS is
held to one thread through its environment, recorded with the environment.

The program is imported from ``src/`` beside this directory and nowhere
else; without it the benchmark exits with code 2 and prints no result.
"""

# numpy and paleyzyg are imported inside functions only: the set-up probe
# times their import.
import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("rline", "grid", "moments")

SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 170
MIN_TAIL_ITEMS = 10
# item_tail_ms percentile per workload; each leaves >= MIN_TAIL_ITEMS items
# beyond it at the benchmark's run length and falls inside one cluster of
# equally sized items, so whole-pass counts do not move it (BENCHMARK.json
# states the same numbers).
TAIL_PERCENTILE = {"rline": 75, "grid": 94, "moments": 80}

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "first_item_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

_LAYERS = (
    ("kernels.nudft", ("calls", "self_s", "terms", "distinct_per_call")),
    ("kernels.best_phase_pow", ("calls", "self_s", "evals")),
    ("kernels.min_sup_phase", ("calls", "self_s", "evals")),
    ("realline.mu_l2_sq", ("calls", "self_s")),
    ("realline.fourier_transform", ("calls", "self_s", "nodes")),
    ("realline.PaleyMeasure.block_nodes", ("calls", "self_s", "distinct_per_call")),
    ("realline.square_function_norm", ("calls", "self_s")),
    ("realline.lp_block", ("calls", "self_s")),
    ("realline.CompactSignal.orlicz_half", ("self_s",)),
    ("window.eta_scaled", ("calls", "self_s")),
    ("torus.synthesize", ("calls", "self_s", "grid_points")),
    ("torus.orlicz_functional", ("calls", "self_s", "grid_points")),
    ("torus.weighted_l2", ("calls", "self_s")),
    ("torus.TrigPoly", ("calls", "self_s", "coeffs")),
    ("zygmund.zygmund_ratio", ("calls", "self_s")),
    ("zygmund.dyadic_max_select", ("calls", "self_s")),
    ("zygmund.even_odd_split", ("calls", "self_s")),
    ("multipliers.MultiplierSeq.value_at", ("calls", "self_s")),
    ("multipliers.paley_block_sums", ("self_s",)),
    ("extremals.sharpness_experiment", ("self_s",)),
    ("extremals.vallee_poussin", ("self_s",)),
    ("extremals.ingham_tail_sup", ("calls", "self_s", "grid_points")),
    ("growth.even_p_ratio", ("calls", "self_s", "grid_points")),
    ("growth.phase_ascent_ratio", ("calls", "self_s", "gain_over_flat")),
    ("growth.sidon_lower_bound", ("calls", "self_s", "gain_over_flat")),
    ("growth.draw", ("self_s",)),
    ("spectra.sumset_bonami", ("calls", "self_s")),
    ("numpy.fft", ("calls", "self_s", "points")),
    ("bench.item", ("self_s",)),
    ("trace", ("wall_s", "untraced_wall_s", "overhead_s")),
)
_UNITS = {"self_s": "s", "wall_s": "s", "untraced_wall_s": "s", "overhead_s": "s",
          "distinct_per_call": "ratio", "gain_over_flat": "ratio"}
PER_LAYER = {f"{layer}.{field}": _UNITS.get(field, "count")
             for layer, fields in _LAYERS for field in fields}


def import_workloads():
    """Import the workload module against the checkout's own ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "paleyzyg", "__init__.py")):
        print(f"error: no paleyzyg package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import workloads
    import paleyzyg
    if not os.path.abspath(paleyzyg.__file__).startswith(SRC + os.sep):
        print(f"error: paleyzyg imported from {paleyzyg.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return workloads


def run_item(item, recorder=None):
    """Run one item; returns (output or None if it raised, seconds)."""
    start = time.perf_counter()
    try:
        if recorder is None:
            value = item.run()
        else:
            with recorder.item(item.key):
                value = item.run()
    except Exception:  # a failing item is counted and the run goes on
        print(f"item {item.key} raised:", file=sys.stderr)
        traceback.print_exc()
        value = None
    return value, time.perf_counter() - start


class Passes:
    """Outcome of whole passes of a workload."""

    def __init__(self):
        self.times = []
        self.failed = 0
        self.changed = 0
        self.values = {}
        self.passes = 0
        self.wall = 0.0
        self.cpu = 0.0


def run_items(out, items, check, recorder=None):
    """Run items one by one, recording times, failures and outputs in ``out``."""
    for item in items:
        value, dt = run_item(item, recorder)
        out.times.append(dt)
        if not check(item.key, value):
            out.failed += 1
            print(f"item {item.key} missed its reference value", file=sys.stderr)
        if out.values.setdefault(item.key, value) != value:
            out.changed += 1
            print(f"item {item.key} changed on a repeat", file=sys.stderr)


def run_passes(wl, check, first=0, seconds=None, passes=None, recorder=None, between=None):
    """Run whole passes from pass ``first`` on, until ``seconds`` have
    elapsed (at least one pass), or exactly ``passes`` passes.  ``between()``
    runs after each pass, outside the measured wall and CPU time."""
    out = Passes()
    # process_time: user plus system CPU of every thread of this process
    cpu0, start = time.process_time(), time.perf_counter()
    while (out.passes < passes) if passes is not None else \
            (out.passes == 0 or time.perf_counter() - start < seconds):
        run_items(out, wl.pass_items(first + out.passes), check, recorder)
        out.passes += 1
        if between is not None:
            cpu1, paused = time.process_time(), time.perf_counter()
            between()
            cpu0 += time.process_time() - cpu1
            start += time.perf_counter() - paused
    out.wall = time.perf_counter() - start
    out.cpu = time.process_time() - cpu0
    return out


def same_values(a, b):
    """Whether every item the two outcomes share gave bit-identical output."""
    return a.changed == b.changed == 0 and all(
        a.values[k] == v for k, v in b.values.items() if k in a.values)


def run_child(args, probe, env=None):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--probe", probe] + (["--small"] if args.small else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{probe} probe exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe_setup(args):
    """Fresh interpreter: import paleyzyg and build the inputs (setup_s),
    then run the first item; first_item_s counts from the start of the
    import to the end of that item.  Loading the reference is not timed."""
    t0 = time.perf_counter()
    workloads = import_workloads()
    t1 = time.perf_counter()
    check = workloads.Checker()
    t2 = time.perf_counter()
    wl = workloads.build(args.workload, args.seed, args.small, check.reference)
    setup_s = (t1 - t0) + (time.perf_counter() - t2)
    item = wl.pass_items(0)[0]
    value, item_s = run_item(item)
    return {"setup_s": setup_s, "first_item_s": setup_s + item_s,
            "ok": check(item.key, value)}


def probe_serial(args):
    """One pass after a warm-up item, in a process whose BLAS thread count
    its parent set through the environment."""
    workloads = import_workloads()
    check = workloads.Checker()
    wl = workloads.build(args.workload, args.seed, args.small, check.reference)
    run_item(wl.pass_items(0)[0])
    res = run_passes(wl, check, first=1, passes=1)
    return {"blas_threads": blas_threads(), "items": len(res.times), "failed": res.failed,
            "item_p50_ms": 1e3 * statistics.median(res.times),
            "cpu_per_item_s": res.cpu / len(res.times)}


def untraced_run(args):
    # set-up probes run two per gap before, between and after the passes, so
    # their median spans the run rather than one moment of it
    probes = []
    repeats = 1 if args.small else SETUP_REPEATS

    def probe(count=2):
        while count > 0 and len(probes) < repeats:
            probes.append(run_child(args, "setup"))
            count -= 1

    workloads = import_workloads()
    import numpy as np
    probe()
    check = workloads.Checker()
    wl = workloads.build(args.workload, args.seed, args.small, check.reference)
    # pass 0 warms the process up untimed; its first items run again at the end
    warm = run_passes(wl, check, passes=1, between=probe)
    res = run_passes(wl, check, first=1, seconds=args.seconds, between=probe)
    probe(repeats)
    again = Passes()
    run_items(again, wl.pass_items(0)[:2], check)
    identical = same_values(res, warm) and same_values(again, warm)
    ms = [1e3 * t for t in res.times]
    q = TAIL_PERCENTILE[args.workload]
    beyond = len(ms) * (100 - q) / 100
    if beyond < MIN_TAIL_ITEMS:
        print(f"warning: only {beyond:.1f} items beyond p{q}", file=sys.stderr)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "items_per_s": (len(ms) - res.failed) / res.wall,
        "first_item_s": statistics.median(p["first_item_s"] for p in probes),
        "item_p50_ms": statistics.median(ms),
        "item_tail_ms": float(np.percentile(ms, q)),
        "cpu_s": res.cpu / res.passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    attempted = len(warm.times) + len(res.times) + len(again.times)
    failed = warm.failed + res.failed + again.failed
    correct = (failed == 0 and identical and check.snapshots_ok()
               and all(p["ok"] for p in probes))
    info = {"passes": res.passes, "items": len(ms), "timed_wall_s": res.wall,
            "tail_percentile": q, "items_beyond_tail": beyond,
            "failed_frac": failed / attempted, "reruns_identical": identical,
            "snapshot_errors": check.snapshot_errors,
            "item_p50_ms_by_kind": _by_kind(wl, res)}
    return correct, attempted, failed, metrics, info


def _by_kind(wl, res):
    """Median item time per item kind (the key without its pool index) over
    the timed passes, which start at pass 1."""
    keys = [it.key for n in range(1, 1 + res.passes) for it in wl.pass_items(n)]
    kinds = {}
    for key, t in zip(keys, res.times):
        head, _, tail = key.rpartition("/")
        kinds.setdefault(head if tail.isdigit() else key, []).append(1e3 * t)
    return {k: statistics.median(v) for k, v in kinds.items()}


def traced_run(args):
    workloads = import_workloads()
    import paleyzyg
    from recorder import Recorder
    check = workloads.Checker()

    def build():
        return workloads.build(args.workload, args.seed, args.small, check.reference)

    warm = run_passes(build(), check, passes=1)
    start = time.perf_counter()
    plain = run_passes(build(), check, first=1, seconds=args.seconds / 2)
    untraced_wall = time.perf_counter() - start

    rec = Recorder()
    try:
        rec.install(paleyzyg)
        start = time.perf_counter()
        with rec.item("setup"):
            wl = build()
        traced = run_passes(wl, check, first=1, passes=plain.passes, recorder=rec)
        traced_wall = time.perf_counter() - start
    finally:
        rec.uninstall()

    layers = rec.layer_metrics()
    layers.update({"trace.wall_s": traced_wall, "trace.untraced_wall_s": untraced_wall,
                   "trace.overhead_s": traced_wall - untraced_wall})
    metrics = {name: layers.get(name, 0.0) for name in PER_LAYER}
    identical = same_values(traced, plain) and same_values(plain, warm)
    info = {"passes": plain.passes, "identical_traced_values": identical,
            "snapshot_errors": check.snapshot_errors,
            "threaded_item_p50_ms": 1e3 * statistics.median(plain.times),
            "layers_by_self_s": sorted(((n, t[1]) for n, t in rec.totals().items()),
                                       key=lambda kv: -kv[1])}
    if args.workload == "rline":
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        info["serial_blas1"] = run_child(args, "serial", env=env)
    attempted = len(warm.times) + len(plain.times) + len(traced.times)
    failed = warm.failed + plain.failed + traced.failed
    correct = failed == 0 and identical and check.snapshots_ok()
    return correct, attempted, failed, metrics, info


def blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import numpy
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def _sysconf(code):
    try:
        return int(ctypes.CDLL(None).sysconf(code))
    except (OSError, AttributeError):
        return None


def git_rev():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import importlib.metadata
    import numpy
    import paleyzyg._kernels
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "using_numba": paleyzyg._kernels.USING_NUMBA,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "nproc": len(os.sched_getaffinity(0)),
        # glibc's _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE
        "l2_bytes": _sysconf(191),
        "l3_bytes": _sysconf(194),
        "git_rev": git_rev(),
    }


def print_result(args, correct, attempted, failed, metrics, units, info):
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"correct={correct} attempted={attempted} failed={failed}")
    for name, value in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {units[name]}")
    for name, self_s in info.pop("layers_by_self_s", [])[:20]:
        print(f"  self time {name:<42} {self_s:>14.6g} s")
    print(json.dumps({"env": environment(), "run": info}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": units[n]}
                                  for n, v in metrics.items()}}))


def run_all(args):
    """Each workload in its own process; metrics prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--small"] if args.small else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(proc.returncode)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", choices=("setup", "serial"), help=argparse.SUPPRESS)
    ap.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 0:
        ap.error("--seconds must be >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        run_all(args)
    elif args.probe == "setup":
        print(json.dumps(probe_setup(args)))
    elif args.probe == "serial":
        print(json.dumps(probe_serial(args)))
    else:
        correct, attempted, failed, metrics, info = (traced_run if args.trace
                                                     else untraced_run)(args)
        print_result(args, correct, attempted, failed, metrics,
                     PER_LAYER if args.trace else END_TO_END, info)


if __name__ == "__main__":
    main()
