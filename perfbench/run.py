#!/usr/bin/env python3
"""Run one workload of the gridveil benchmark and print its metrics.

    python3 perfbench/run.py --workload ds-labelling --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
run sets up the workload several times (``setup_s`` is the median), then
performs whole operations until ``--seconds`` have passed, checks every
output with the independent checks, and prints one JSON object as its last
line: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones (BENCHMARK.json
``end_to_end``), with times scaled to a nominal machine speed that a
reference kernel, timed before every operation, measures (reference.py).  With ``--trace 1`` the first half of the run is untraced
and the second half traced, and the metrics are the per-layer ones plus the
tracing overhead between the halves; the spans are written to
``perfbench/out/<workload>-seed<seed>.spans.json``.  Every run also writes
its environment, figures and problems to ``perfbench/out``.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before NumPy loads
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# set-up runs at least this often, and until this much time has passed
SETUP_REPS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 50


def load_program() -> None:
    """Import gridveil from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gridveil
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import gridveil from {src}: {exc}") from None
    if Path(gridveil.__file__).resolve().parent != (src / "gridveil").resolve():
        raise SystemExit(f"perfbench: gridveil imported from {gridveil.__file__}, not {src}")


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of show_config differs between NumPy releases
        blas = "unknown"
    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": git_sha(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, state, seconds: float, k0: int, ref, ref_s: list, tracer=None):
    """Whole operations until ``seconds`` of them have passed.

    The reference kernel runs before each operation (times appended to
    ``ref_s``).  Each output is checked and reduced to its record right
    away, outside the timed region and unseen by the tracer.  Returns
    (records, seconds per successful operation, problems, failed, attempted).
    """
    from layers import OP_SPAN

    records, op_s, problems, failed = [], [], [], 0
    k, spent = k0, 0.0
    while k == k0 or spent < seconds:
        ref_s.append(ref.run())
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.op(state, k)
            else:
                with tracer.span(OP_SPAN):
                    out = wl.op(state, k)
        except Exception:  # a failing operation is counted, not fatal
            traceback.print_exc()
            out = None
        dt = time.perf_counter() - t0
        spent += dt
        k += 1
        if out is None or wl.failed(out):
            failed += 1
            continue
        with tracer.pause() if tracer else contextlib.nullcontext():
            problems += wl.check(state, out)
            records.append(wl.record(state, out))
        op_s.append(dt)
    return records, op_s, problems, failed, k - k0


def run(wl, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    import layers
    from reference import Reference
    from spans import Tracer

    ref, ref_s = Reference(wl.reference), []
    tracer = Tracer() if trace else None
    if tracer:
        layers.install(tracer)
    setup_s = []
    while len(setup_s) < SETUP_MAX_REPS and (
        len(setup_s) < SETUP_REPS or sum(setup_s) < SETUP_MIN_S
    ):
        t0 = time.perf_counter()
        state = wl.setup(seed, workdir)
        setup_s.append(time.perf_counter() - t0)

    if tracer:
        tracer.unwrap_all()
        plain = measure(wl, state, seconds / 2, 0, ref, ref_s)
        layers.install(tracer)
        traced = measure(wl, state, seconds / 2, plain[4], ref, ref_s, tracer)
        tracer.unwrap_all()
        records, op_s, problems, failed, attempted = (a + b for a, b in zip(plain, traced))
    else:
        records, op_s, problems, failed, attempted = measure(wl, state, seconds, 0, ref, ref_s)
    speed = ref.nominal_s / statistics.median(ref_s)
    result = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "speed_factor": speed,
        "reference_s": ref_s,
        "setup_s": setup_s,
        "op_s": op_s,
        "figures": wl.summary(records, op_s) if records else {},
        "problems": problems,
    }
    if tracer:
        facts = wl.facts(state, traced[0]) if traced[0] else {}
        metrics = layers.per_layer(tracer, facts, plain[1], traced[1])
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        with open(OUT / f"{wl.name}-seed{seed}.spans.json", "w") as fh:
            json.dump(tracer.to_json(), fh)
        result["absent"] = tracer.absent
    else:
        # times are scaled to the nominal machine speed (reference.py)
        metrics = {
            "setup_s": statistics.median(setup_s) * speed,
            "peak_rss_mb": peak_rss_mb(),
            "op_ms": 1e3 * statistics.median(op_s) * speed if op_s else 0.0,
            "ops_per_s": len(op_s) / sum(op_s) / speed if op_s else 0.0,
        }
        units = {"setup_s": "s", "peak_rss_mb": "MB", "op_ms": "ms", "ops_per_s": "1/s"}
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    result["correct"] = not problems and bool(records)
    result["attempted"] = attempted
    result["failed"] = failed
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    load_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT)
    try:
        result = run(wl, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(f"# environment {json.dumps(result['environment'], sort_keys=True)}")
    print(f"# speed factor {result['speed_factor']:.4f} (nominal over median kernel time)")
    for name, value in result["figures"].items():
        print(f"# {wl.name} {name} {value:.6g}")
    for problem in result["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    if result.get("absent"):
        print(f"# absent from the program: {', '.join(result['absent'])}")
    print(
        json.dumps(
            {k: result[k] for k in ("correct", "attempted", "failed", "metrics")},
            allow_nan=False,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
