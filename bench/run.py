"""Benchmark of spectralgc's Monte Carlo and analyze paths.

Drives the public entry points ``run_example`` and ``analyze_panel``
in-process on seeded inputs (see ``workloads.py``), as a closed loop of
one caller: each call starts when the previous one has returned and its
summary has been checked.  Run from the root of a checkout::

    python3 bench/run.py --workload mc-ex2-long --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --self-check   # every metric of every workload, briefly
    python3 bench/run.py --record       # re-record expected.json (all slots)

With ``--trace 0`` the last line of stdout reports the end-to-end
metrics; with ``--trace 1`` untraced and traced calls alternate and it
reports the per-layer metrics of ``tracing.PER_LAYER``.  Each run also
writes its details, environment and spans under ``.bench_work/results``.
"""

import os

# One BLAS/OpenMP thread in this process, its pool workers and the setup
# interpreters.  It must be set before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (first: it puts the checkout's src/ on sys.path)

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from spectralgc import experiments  # noqa: E402
from spectralgc.errors import ConfigError, NumericalError  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

ROOT = workloads.ROOT
WORK = ROOT / ".bench_work"
RESULTS = WORK / "results"

#: fresh-interpreter set-ups per untraced run; setup_s is their median
SETUP_REPS = 3
#: timed calls per run even when --seconds is shorter than that many calls
MIN_CALLS = 4
SELF_CHECK_SEED = 0

END_TO_END = [
    ("wall_s", "s"),
    ("throughput_per_s", "1/s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_frac", "ratio"),
]


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children (the pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or of any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def blas_threads() -> dict:
    """Threads reported by each loaded OpenBLAS (numpy and scipy bundle one each)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return {}
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[Path(path).name] = getter()
                break
    return found


def environment() -> dict:
    git = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((workloads.SRC / "spectralgc").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version"),
        "git_sha": git,
        "source_sha256": source.hexdigest(),
    }


def time_setups(workload, seed: int, reps: int) -> list:
    """Wall seconds of fresh interpreters that import spectralgc and build the inputs."""
    cmd = [sys.executable, str(Path(workloads.__file__)), workload.name, str(seed), str(WORK)]
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run(workload, seed: int, seconds: float, trace: bool) -> tuple:
    """One benchmark run; returns the result line and the run's details."""
    for stale in (WORK / "out" / workload.name, WORK / "check" / workload.name):
        shutil.rmtree(stale, ignore_errors=True)
    kept = WORK / "check" / workload.name
    kept.mkdir(parents=True)
    RESULTS.mkdir(parents=True, exist_ok=True)

    setups = time_setups(workload, seed, 1 if trace else SETUP_REPS)
    expected = checks.load_expected()[workload.inputs_key]
    entry = getattr(experiments, workload.entry)
    # Pool workers keep their spans, so with n_jobs > 1 only the call span is traced.
    tracer = tracing.Tracer(layers=workload.n_jobs == 1)

    calls = []  # one dict per call: slot, traced, timed, wall, cpu, problems, digest

    def one_call(k: int, traced: bool, timed: bool) -> None:
        call_seed = workloads.call_seed(workload, seed, k)
        slot = workloads.slot_of(call_seed)
        spec = workloads.make_spec(workload, call_seed, WORK)
        start_cpu, start = cpu_seconds(), time.perf_counter()
        try:
            if traced:
                with tracer:
                    summary = tracer.call(entry, spec)
            else:
                summary = entry(spec)
        except (ConfigError, NumericalError) as exc:
            summary, problems = None, [f"{type(exc).__name__}: {exc}"]
        wall, cpu = time.perf_counter() - start, cpu_seconds() - start_cpu
        digest = None
        if summary is not None:
            problems = checks.check_mse(summary, expected[str(slot)].get("mse", {}))
            fields_path = checks.field_file(spec.out_dir, workload.entry)
            digest = file_digest(fields_path)
            if not (kept / digest).exists():
                shutil.copyfile(fields_path, kept / digest)
        calls.append({"slot": slot, "traced": traced, "timed": timed, "wall": wall, "cpu": cpu,
                      "problems": problems, "digest": digest})

    one_call(0, traced=False, timed=False)  # warm-up: not timed, but checked
    # With tracing, each input is called untraced and then traced, so the two
    # medians that trace.overhead_frac compares cover the same inputs.
    elapsed, n = 0.0, 0
    while elapsed < seconds or n < MIN_CALLS:
        if trace:
            one_call(n // 2, traced=n % 2 == 1, timed=True)
        else:
            one_call(n, traced=False, timed=True)
        elapsed += calls[-1]["wall"]
        n += 1
    peak = peak_rss_mb()  # before the checks below load whole field files

    # Each distinct field file is reloaded and checked once, then deleted.
    field_problems = {}
    for c in calls:
        key = (c["digest"], c["slot"])
        if c["digest"] is None:
            continue
        if key not in field_problems:
            field_problems[key] = checks.check_fields(kept / c["digest"], expected[str(c["slot"])]["fields"])
        c["problems"] = c["problems"] + field_problems[key]
    shutil.rmtree(kept)
    attempted = len(calls)
    failed = sum(bool(c["problems"]) for c in calls)

    plain = [c for c in calls if c["timed"] and not c["traced"]]
    traced = [c for c in calls if c["traced"]]
    wall_s = statistics.median(c["wall"] for c in plain)
    details = {
        "workload": workload.name, "seed": seed, "trace": trace,
        "slots": sorted({c["slot"] for c in calls}),
        "environment": environment(),
        "timed_calls": len(plain), "wall_s": wall_s, "setup_runs_s": setups,
        "call_walls_s": [c["wall"] for c in plain],
        "failed_frac": failed / attempted,
        "problems": sorted({p for c in calls for p in c["problems"]}),
    }
    if trace:
        layers = tracer.per_layer()
        traced_wall = statistics.median(c["wall"] for c in traced)
        layers["trace.overhead_frac"] = traced_wall / wall_s - 1.0
        metrics = {name: layers[name] for name, _ in tracing.PER_LAYER}
        units = dict(tracing.PER_LAYER)
        busy_sum = sum(metrics[name] for name in tracing.BUSY_METRICS)
        details.update(
            traced_calls=len(traced), traced_wall_s=traced_wall,
            traced_wall_mean_s=statistics.fmean(c["wall"] for c in traced),
            busy_sum_s=busy_sum,
        )
        tracer.write(RESULTS / f"{workload.name}-seed{seed}-spans.json")
    else:
        ok_units = workload.units_per_call * sum(not c["problems"] for c in plain)
        metrics = {
            "wall_s": wall_s,
            "throughput_per_s": ok_units / sum(c["wall"] for c in plain),
            "cpu_s": statistics.median(c["cpu"] for c in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak,
            "success_frac": 1.0 - failed / attempted,
        }
        units = dict(END_TO_END)
    details["metrics"] = metrics
    with open(RESULTS / f"{workload.name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(details, fh, indent=2)
        fh.write("\n")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }, details


def print_run(result: dict, details: dict) -> None:
    env = details["environment"]
    print(f"# {details['workload']} seed {details['seed']} (slots {details['slots']}), "
          f"{details['timed_calls']} timed untraced calls, failed_frac {details['failed_frac']:.6g}")
    print(f"# env: {json.dumps(env, sort_keys=True)}")
    for problem in details["problems"]:
        print(f"# FAILED: {problem}")
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))


def self_check() -> int:
    """Run every workload briefly in both modes; check names, units and time accounting."""
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    problems = []

    def same(what, got, want):
        if got != want:
            problems.append(f"{what}: {got} != {want}")

    same("workloads", [w["name"] for w in declared["workloads"]], list(workloads.WORKLOADS))
    same("end_to_end", [(m["name"], m["unit"]) for m in declared["end_to_end"]], END_TO_END)
    same("per_layer", [(m["name"], m["unit"]) for m in declared["per_layer"]], tracing.PER_LAYER)
    table = []
    for name in workloads.WORKLOADS:
        row = {"workload": name}
        for trace, wanted in ((0, END_TO_END), (1, tracing.PER_LAYER)):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(SELF_CHECK_SEED),
                   "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                problems.append(f"{name} trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            same(f"{name} trace {trace} keys", sorted(result), ["attempted", "correct", "failed", "metrics"])
            same(f"{name} trace {trace} correct", result["correct"], True)
            same(f"{name} trace {trace} metrics",
                 [(m, v["unit"]) for m, v in result["metrics"].items()], wanted)
            with open(RESULTS / f"{name}-seed{SELF_CHECK_SEED}-trace{trace}.json") as fh:
                details = json.load(fh)
            if trace:
                # Self times partition each traced call, so their per-call means add up to
                # the mean traced wall time, up to the cost of the wrappers themselves.
                wall = details["traced_wall_mean_s"]
                gap = abs(details["busy_sum_s"] - wall) / wall
                allowed = max(abs(result["metrics"]["trace.overhead_frac"]["value"]), 1e-3)
                if gap > allowed:
                    problems.append(f"{name}: layer times sum to {details['busy_sum_s']:.6g} s, "
                                    f"traced calls take {wall:.6g} s (gap {gap:.2e} > {allowed:.2e})")
                row["trace.overhead_frac"] = result["metrics"]["trace.overhead_frac"]["value"]
            else:
                row.update({m: v["value"] for m, v in result["metrics"].items()})
                row["failed_frac"] = details["failed_frac"]
        table.append(row)
    columns = [m for m, _ in END_TO_END] + ["failed_frac", "trace.overhead_frac"]
    units = dict(END_TO_END, failed_frac="ratio", **{"trace.overhead_frac": "ratio"})
    print(f"{'workload':14s}" + "".join(f"{c + ' [' + units[c] + ']':>29s}" for c in columns))
    for row in table:
        print(f"{row['workload']:14s}" + "".join(f"{row.get(c, float('nan')):>29.6g}" for c in columns))
    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}")
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


def record() -> int:
    """Run every slot of every distinct input once and write expected.json."""
    inputs = {}
    for workload in workloads.WORKLOADS.values():
        if workload.inputs_key in inputs or workload.n_jobs != 1:
            continue
        table = {}
        for slot in range(workloads.N_SLOTS):
            spec = workloads.build_inputs(workload, slot, WORK)
            summary = getattr(experiments, workload.entry)(spec)
            path = checks.field_file(spec.out_dir, workload.entry)
            residual, fingerprints = checks.inspect_fields(path)
            if not residual <= checks.SUM_RULE_TOL:
                print(f"{workload.name} slot {slot}: sum-rule residual {residual:.3e}", file=sys.stderr)
                return 1
            table[str(slot)] = {"fields": fingerprints}
            if "mse" in summary:
                table[str(slot)]["mse"] = summary["mse"]
            print(f"{workload.inputs_key} slot {slot}: {summary.get('mse', summary['selected_orders'])}",
                  file=sys.stderr)
        inputs[workload.inputs_key] = table
    payload = {"environment": environment(), "inputs": inputs}
    with open(checks.EXPECTED_PATH, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    result, details = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print_run(result, details)
    return 0


if __name__ == "__main__":
    sys.exit(main())
