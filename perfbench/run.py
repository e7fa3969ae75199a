"""xlsched benchmark: one workload, one seed, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload online-dag --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run, ``--trace 1``
the per-layer metrics of a traced round (see README.md). The last line of
standard output is one JSON object; the lines before it stamp the
environment and inputs and list the traced names. Exit status is non-zero,
with no result line, when the package sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_REPS = 7
RECORD_DIR = ROOT / ".bench_out"
WORKLOADS = ("online-dag", "mdu-dag", "offline-dual", "lattice-oracle")
QUALITY = ("avg_distortion", "energy_per_budget", "gap", "oracle_excess", "budget_excess", "drop_rate", "fail_rate")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def bootstrap() -> None:
    """Pin numeric libraries to one thread and import the package from ./src.

    Must run before numpy is imported. Raises SystemExit when the checkout
    holds no package sources, rather than falling back to an installed copy.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "xlsched" / "__init__.py").is_file():
        raise SystemExit(f"error: no package sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import xlsched

    if Path(xlsched.__file__).resolve().parent != (src / "xlsched").resolve():
        raise SystemExit(f"error: imported xlsched from {xlsched.__file__}, not from {src}")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 1])."""
    s = sorted(values)
    return s[min(len(s), max(1, math.ceil(q * len(s)))) - 1]


def time_setup(name: str, seed: int, scale: str):
    """Median set-up time over SETUP_REPS, scaled like the request times.

    Set-up is what a user pays before the first scheduling call: a fresh
    interpreter importing the package, then trace and DAG generation and the
    model build in this process. Returns (seconds, unscaled seconds, inputs,
    model, config).
    """
    import workloads
    from xlsched.experiments import build_model
    from xlsched.config import default_config

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times, kernel = [], []
    for _ in range(SETUP_REPS):
        kernel.append(workloads.reference_s())
        t0 = perf_counter()
        # no timeout: with one, the wait polls with sleeps of up to 50 ms,
        # which quantizes a 0.2 s measurement into 50 ms steps
        subprocess.run([sys.executable, "-c", "import xlsched"], env=env, check=True)
        cfg = default_config()
        inputs = workloads.make_inputs(name, seed, scale)
        model = build_model(cfg)
        times.append(perf_counter() - t0)
    kernel.append(workloads.reference_s())
    factor = workloads.REF_NOMINAL_S / statistics.fmean(kernel)
    return statistics.median(times) * factor, statistics.median(times), inputs, model, cfg


def measure(name: str, inputs, model, cfg, deadline: float, min_rounds: int = 2):
    """Untraced rounds until the next one would end past ``deadline``
    (a ``perf_counter`` time)."""
    import workloads

    rounds = []
    t0 = perf_counter()
    while True:
        rounds.append(workloads.run_round(name, inputs, model, model, True, cfg.learner))
        now = perf_counter()
        if len(rounds) >= min_rounds and now + (now - t0) / len(rounds) > deadline:
            return rounds


def request_times(rounds, scaled: bool = True) -> dict[str, list[float]]:
    """Service time of each request: the fastest of its repeats, one per round.

    Every round makes the same requests in the same order. On a shared
    2-vCPU VM the speed of the host changed by up to 1.7x, in process CPU
    time as much as in wall time, as other tenants came and went: from one
    half-second to the next, and for minutes on end. Scaling each round by
    the reference kernel sampled through it takes out most of the slow
    phases (see ``workloads.REF_LOOP``); the fastest of a request's repeats,
    which lie a round apart, takes out part of the rest.
    """
    out = {}
    times = [r.service_s(scaled) for r in rounds]
    for kind in times[0]:
        repeats = [t[kind] for t in times]
        if len({len(v) for v in repeats}) != 1:
            raise RuntimeError(f"rounds made different numbers of {kind!r} requests")
        out[kind] = [min(v) for v in zip(*repeats)]
    return out


def end_to_end(rounds, setup_s: float) -> tuple[dict, dict]:
    """(gated metrics, figures printed in the stamp).

    Both come from the request times over the rounds. Throughput is the units
    of one round over the summed service times of its requests, so every
    request counts. Percentiles are taken per request kind (the two online
    policies have separate distributions; a pooled median would fall in the
    gap between them) and averaged over the kinds. They are not gated: the
    offline workloads make too few requests per round for a steady 90th
    percentile, and a metric is gated on every workload or on none.
    """
    scaled = request_times(rounds)
    raw = request_times(rounds, scaled=False)

    def decision_ms(q: float) -> float:
        return 1e3 * statistics.fmean(percentile(v, q) for v in scaled.values())

    def units_per_s(times: dict) -> float:
        return rounds[0].units / sum(sum(v) for v in times.values())

    metrics = {
        "setup_s": (setup_s, "s"),
        "units_per_s": (units_per_s(scaled), "units/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    kernel_ms = [1e3 * v for r in rounds for v in r.ref]
    return metrics, {
        "decision_ms_p50": decision_ms(0.5), "decision_ms_p90": decision_ms(0.9),
        "units_per_s_unscaled": units_per_s(raw),
        "kernel_ms": {"min": min(kernel_ms), "mean": statistics.fmean(kernel_ms), "max": max(kernel_ms)},
    }


def traced_round(name: str, seed: int, scale: str, inputs, cfg):
    """One untraced and one traced round over the same inputs.

    Returns (untraced round, traced round, tracer, traced window wall time,
    traced window CPU time). The traced window covers input generation and
    the round, so that ``tracegen`` is measured too; it rebuilds the same
    inputs.
    """
    import spans
    import workloads
    from xlsched.models import ShannonExpModel

    plain = ShannonExpModel(params=cfg.model)
    base = workloads.run_round(name, inputs, plain, plain, False, cfg.learner)
    tracer = spans.Tracer()
    model = spans.CountingModel(params=cfg.model, tracer=tracer)
    tracer.install()
    try:
        t0 = perf_counter()
        c0 = process_time()
        inputs = workloads.make_inputs(name, seed, scale)
        traced = workloads.run_round(name, inputs, model, plain, False, cfg.learner)
        window = perf_counter() - t0
        cpu = process_time() - c0
    finally:
        tracer.uninstall()
    return base, traced, tracer, window, cpu


def per_layer(base, traced, tracer, window: float, cpu: float) -> dict:
    import spans

    q = traced.quality()
    out = {k: (v, _unit(k)) for k, v in spans.layer_metrics(tracer, q).items()}
    out["bench.s"] = (traced.bookkeeping_s, "s")
    out["proc.cpu_per_wall"] = (cpu / window, "ratio")
    out["trace.overhead_share"] = ((traced.busy_s - base.busy_s) / base.busy_s, "ratio")
    for key in QUALITY:
        out[f"quality.{key}"] = (q[key], "distortion" if key == "avg_distortion" else "ratio")
    return out


def _unit(key: str) -> str:
    if key.endswith("_us_p50"):
        return "us"
    if key.endswith(".s") or key.endswith("_s"):
        return "s"
    if key.endswith("_per_call") or key.endswith("_per_outer") or key.endswith("_per_cycle"):
        return "ratio"
    return "count"


def is_deterministic(key: str) -> bool:
    """Counts and outcomes repeat exactly; times and shares of time do not."""
    return _unit(key) in ("count", "ratio") and not key.startswith(("proc.", "trace."))


def code_hash() -> str:
    """SHA-256 over the paths and bytes of the package's and the benchmark's
    Python sources: a change to either may change the deterministic values."""
    h = hashlib.sha256()
    for f in sorted([*(ROOT / "src" / "xlsched").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(f.relative_to(f.parents[1]).as_posix().encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def check_record(path: Path, quality: dict, counters: dict) -> list[str]:
    """Compare deterministic values with an earlier run of the same code and inputs.

    The first run of a (workload, seed, scale, code) writes the record; later
    runs, traced or not, must match it exactly. A change to the package or
    the benchmark starts a new record, since it may change these values.
    """
    problems = []
    old = json.loads(path.read_text()) if path.is_file() else {}
    for section, new in (("quality", quality), ("counters", counters)):
        prev = old.get(section, {})
        for k, v in new.items():
            if k in prev and prev[k] != v:
                problems.append(f"{section}.{k}: {v!r} now, {prev[k]!r} in an earlier run")
        old[section] = {**prev, **new}
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(old, indent=1, sort_keys=True))
    tmp.replace(path)
    return problems


def stamp(name: str, seed: int, seconds: int, trace: int, inputs: dict, extra: dict) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        sha = res.stdout.strip() or sha
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "inputs": inputs["sizes"], "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "git_sha": sha, **extra,
    }


def run(name: str, seed: int, seconds: int, trace: int, scale: str = "full") -> tuple[dict, list[str], dict]:
    """Run one workload; returns (result object, problems, stamp)."""
    import spans
    import workloads
    from xlsched.config import default_config

    problems: list[str] = []
    deadline = perf_counter() + seconds
    code = code_hash()
    record = RECORD_DIR / f"{name}-{scale}-seed{seed}-{code[:16]}.json"
    if trace:
        cfg = default_config()
        inputs = workloads.make_inputs(name, seed, scale)
        base, traced, tracer, window, cpu = traced_round(name, seed, scale, inputs, cfg)
        rounds = [base, traced]
        metrics = per_layer(base, traced, tracer, window, cpu)
        counters = {k: v for k, (v, _) in metrics.items() if is_deterministic(k)}
        extra = {"traced_window_s": window, "top_level_span_s": tracer.top_level_s,
                 "untraced_round_s": base.wall_s, "traced_round_s": traced.wall_s,
                 "spans": spans.per_name_table(tracer)}
    else:
        setup_s, setup_unscaled, inputs, model, cfg = time_setup(name, seed, scale)
        rounds = measure(name, inputs, model, cfg, deadline)
        metrics, printed = end_to_end(rounds, setup_s)
        counters = {}
        extra = {"rounds": len(rounds), **printed, "setup_s_unscaled": setup_unscaled, "requests_per_round": {
            kind: len(v) for kind, v in rounds[0].requests.items()}}
    qualities = [r.quality() for r in rounds]
    for i, q in enumerate(qualities[1:], start=1):
        diff = [k for k in q if q[k] != qualities[0][k]]
        if diff:
            problems.append(f"round {i} differs from round 0 in {diff}")
    problems += check_record(record, qualities[0], counters)
    q = qualities[0]
    if q["mismatched"]:
        problems.append(f"{q['mismatched']} reported values disagree with the benchmark's evaluation")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    extra["code_sha256"] = code
    info = stamp(name, seed, seconds, trace, inputs, {**extra, "fail_rate": failed / attempted, **{
        f"quality.{k}": q[k] for k in QUALITY if k != "fail_rate"}})
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, problems, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bootstrap()
    result, problems, info = run(args.workload, args.seed, args.seconds, args.trace)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    for name, calls, self_s, incl_s in info.pop("spans", ()):
        print("span", json.dumps({"name": name, "calls": calls, "self_s": self_s, "incl_s": incl_s}))
    print("stamp", json.dumps(info, sort_keys=True))
    for k, m in result["metrics"].items():
        print(f"metric {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
