"""Latin-hypercube sampling of distribution operating points and dataset I/O.

A sample is x = (v_pcc_1..r, p_dg_1..n, q_dg_1..n): coupling-point voltage
magnitudes plus DG setpoints.  Labels are 0 (feasible) / 1 (infeasible); the
recorded PCC flows are in the export orientation, MW/MVAr, NaN on every
infeasible row (outside its capability chart, no converged flow, or a limit
broken).

Generation is deterministic for a given (case, n, seed): the sample matrix is
drawn up front, and the in-chart rows are labelled by ``ds_response_batch``,
which solves them in fixed blocks of ``powerflow.BLOCK_ROWS`` rows from the
first.  With --jobs above 1 each worker receives a run of whole blocks, so
each row is solved in the same block under any --jobs value and the result
is bit-identical.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .netmodel import NetworkCase, PQChart
from .powerflow import BLOCK_ROWS, ds_response_batch


def resolve_jobs(jobs: int | None) -> int:
    if jobs is None:
        jobs = int(os.environ.get("GRIDVEIL_JOBS", "1"))
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    return jobs


# what pool_map hands each worker once, at start-up
_WORKER: dict = {}


def _init_worker(shared: dict):
    _WORKER.update(shared)


def _call_worker(fn, arg):
    return fn(_WORKER, arg)


def pool_map(fn, args: list, jobs: int, chunksize: int | None = None, **shared) -> list:
    """[fn(shared, a) for a in args], in order, on jobs forked workers when jobs > 1.

    shared reaches each worker once, when the pool starts; fn must be a
    module-level function.  Results do not depend on jobs.
    """
    if jobs == 1 or len(args) < 2:
        return [fn(shared, a) for a in args]
    with mp.Pool(jobs, initializer=_init_worker, initargs=(shared,)) as pool:
        return pool.map(partial(_call_worker, fn), args, chunksize=chunksize)


@dataclass(frozen=True)
class SampleSpace:
    """Axis-aligned sampling box of one distribution case."""

    names: tuple[str, ...]
    x_min: np.ndarray
    x_max: np.ndarray
    n_pcc: int
    n_dg: int
    charts: tuple[PQChart, ...] = field(compare=False, repr=False, default=())

    @property
    def n_x(self) -> int:
        return self.n_pcc + 2 * self.n_dg


def sample_space(case: NetworkCase) -> SampleSpace:
    """Sampling box of a single-DS case: PCC voltage bands and DG chart boxes."""
    ds_id, couplings = case.single_ds()
    charts = case.charts_for(ds_id)
    names, lo, hi = [], [], []
    for u, (ds_bus, _) in enumerate(couplings, start=1):
        b = case.bus(ds_bus)
        names.append(f"v_pcc_{u}")
        lo.append(b.v_min)
        hi.append(b.v_max)
    for k, chart in enumerate(charts, start=1):
        names.append(f"p_dg_{k}")
        lo.append(chart.box[0])
        hi.append(chart.box[1])
    for k, chart in enumerate(charts, start=1):
        names.append(f"q_dg_{k}")
        lo.append(chart.box[2])
        hi.append(chart.box[3])
    return SampleSpace(
        names=tuple(names),
        x_min=np.array(lo),
        x_max=np.array(hi),
        n_pcc=len(couplings),
        n_dg=len(charts),
        charts=tuple(charts),
    )


def lhs(n: int, x_min: np.ndarray, x_max: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Latin hypercube: one point per stratum per dimension, shuffled independently."""
    x_min = np.asarray(x_min, dtype=float)
    x_max = np.asarray(x_max, dtype=float)
    d = len(x_min)
    u = np.empty((n, d))
    for k in range(d):
        u[:, k] = (rng.permutation(n) + rng.uniform(size=n)) / n
    return x_min + u * (x_max - x_min)


@dataclass
class Dataset:
    x: np.ndarray  # (n, n_x)
    label: np.ndarray  # (n,) 0 feasible / 1 infeasible
    p_pcc: np.ndarray  # (n, n_pcc) MW export, NaN without a converged flow
    q_pcc: np.ndarray
    names: tuple[str, ...]
    n_pcc: int
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.label)

    @property
    def feasible_fraction(self) -> float:
        return float(np.mean(self.label == 0))

    def subset(self, idx: np.ndarray) -> "Dataset":
        return replace(
            self,
            x=self.x[idx],
            label=self.label[idx],
            p_pcc=self.p_pcc[idx],
            q_pcc=self.q_pcc[idx],
            meta=dict(self.meta),
        )


def chart_mask(space: SampleSpace, x: np.ndarray) -> np.ndarray:
    """True where every DG setpoint lies inside its capability chart."""
    ok = np.ones(len(x), dtype=bool)
    r = space.n_pcc
    for k, chart in enumerate(space.charts):
        pq = x[:, [r + k, r + space.n_dg + k]]
        ok &= np.all(pq @ chart.a_pq.T - chart.b_pq <= 1e-9, axis=1)
    return ok


def _label_rows(shared: dict, x: np.ndarray):
    return ds_response_batch(shared["case"], x)


def generate_dataset(case: NetworkCase, n: int, seed: int, jobs: int | None = None) -> Dataset:
    """Sample n operating points and label them through the DS response.

    Points outside a DG chart are labeled infeasible without running a power
    flow; everything else is decided by ds_response_batch, which labels and
    flows each row as ds_response does.  Flows are stored only for feasible
    rows.
    """
    jobs = resolve_jobs(jobs)
    space = sample_space(case)
    rng = np.random.default_rng(seed)
    x = lhs(n, space.x_min, space.x_max, rng)

    label = np.ones(n, dtype=np.int8)
    p_pcc = np.full((n, space.n_pcc), np.nan)
    q_pcc = np.full((n, space.n_pcc), np.nan)

    inside = chart_mask(space, x)
    idx = np.flatnonzero(inside)
    if idx.size:
        # one run of whole blocks per worker, so the blocks are those of one call
        n_blocks = -(-idx.size // BLOCK_ROWS)
        n_runs = min(jobs, n_blocks)
        cuts = BLOCK_ROWS * (n_blocks * np.arange(1, n_runs) // n_runs)
        parts = pool_map(_label_rows, np.split(x[idx], cuts), jobs, case=case)
        label[idx], p_pcc[idx], q_pcc[idx] = map(np.concatenate, zip(*parts))

    meta = {
        "case": case.name,
        "case_hash": case.text_hash(),
        "n": n,
        "seed": seed,
        "feasible": int(np.sum(label == 0)),
        "version": __version__,
    }
    return Dataset(x, label, p_pcc, q_pcc, space.names, space.n_pcc, meta)


def split_dataset(ds: Dataset, test_frac: float = 0.2, seed: int = 0):
    """Deterministic shuffled train/test split; class counts land in meta."""
    if not 0.0 < test_frac < 1.0:
        raise ValueError("test_frac must be in (0, 1)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ds.n)
    n_test = int(round(ds.n * test_frac))
    if n_test == 0 or n_test == ds.n:
        raise ValueError("split leaves one side empty")
    train = ds.subset(np.sort(perm[n_test:]))
    test = ds.subset(np.sort(perm[:n_test]))
    for part, tag in ((train, "train"), (test, "test")):
        part.meta["split"] = tag
        part.meta["class0"] = int(np.sum(part.label == 0))
        part.meta["class1"] = int(np.sum(part.label == 1))
    return train, test


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------
#
# First line is the fixed column header v_pcc_*, p_dg_*, q_dg_*, label,
# p_pcc_*, q_pcc_*; every following line is one sample at 17 significant
# digits (lossless for float64).  Provenance lives in a sidecar JSON next to
# the data, so the CSV bytes depend only on the dataset content, never on how
# many workers produced it or on the exact command.

_FMT = "%.17g"


def _sidecar(path) -> str:
    return str(path) + ".meta.json"


def csv_header(names, n_pcc: int) -> str:
    flow = [f"p_pcc_{u + 1}" for u in range(n_pcc)] + [
        f"q_pcc_{u + 1}" for u in range(n_pcc)
    ]
    return ",".join(list(names) + ["label"] + flow)


def write_csv(path, ds: Dataset) -> None:
    row_fmt = ",".join([_FMT] * ds.x.shape[1] + ["%d"] + [_FMT] * (2 * ds.n_pcc)) + "\n"
    rows = np.hstack([ds.x, ds.label[:, None], ds.p_pcc, ds.q_pcc]).tolist()
    with open(path, "w") as fh:
        fh.write(csv_header(ds.names, ds.n_pcc) + "\n")
        fh.writelines(row_fmt % tuple(row) for row in rows)
    write_sidecar(path, ds.meta)


def write_sidecar(path, meta: dict) -> None:
    """Write provenance for the artifact at ``path`` to ``<path>.meta.json``."""
    write_json(_sidecar(path), meta, sort_keys=True)


def json_text(obj, sort_keys: bool = False) -> str:
    """The text of one JSON artifact: one-space indent and a closing newline."""
    return json.dumps(obj, indent=1, sort_keys=sort_keys) + "\n"


def write_json(path, obj, sort_keys: bool = False) -> None:
    """Write one JSON artifact (``json_text``) in one write."""
    Path(path).write_text(json_text(obj, sort_keys))


def _parse_error(lines, header_width: int) -> ValueError:
    for lineno, line in enumerate(lines, start=2):
        cells = line.split(",")
        if len(cells) != header_width:
            return ValueError(f"line {lineno}: expected {header_width} fields, got {len(cells)}")
        for c in cells:
            try:
                float(c)
            except ValueError:
                return ValueError(f"line {lineno}: bad number {c!r}")
    return ValueError("malformed data rows")


def read_csv(path) -> Dataset:
    with open(path) as fh:
        header_line = fh.readline().strip()
        body = fh.read()
    header = header_line.split(",")
    if "label" not in header:
        raise ValueError(f"{path}: header row lacks a label column")
    lab_col = header.index("label")
    n_pcc = (len(header) - lab_col - 1) // 2
    if header_line != csv_header(header[:lab_col], n_pcc):
        raise ValueError(f"{path}: unexpected header layout")
    lines = body.splitlines()
    try:
        data = np.loadtxt(lines, delimiter=",", ndmin=2) if lines else np.empty((0, len(header)))
    except ValueError:
        raise _parse_error(lines, len(header)) from None
    if data.shape[1] != len(header):
        raise _parse_error(lines, len(header))

    meta: dict = {}
    if os.path.exists(_sidecar(path)):
        with open(_sidecar(path)) as fh:
            meta = json.load(fh)

    label = data[:, lab_col].astype(np.int8)
    p_pcc = data[:, lab_col + 1 : lab_col + 1 + n_pcc]
    q_pcc = data[:, lab_col + 1 + n_pcc :]
    flows = np.hstack([p_pcc, q_pcc])
    bad = (label == 0) & ~np.all(np.isfinite(flows), axis=1)
    if np.any(bad):
        lineno = int(np.flatnonzero(bad)[0]) + 2
        raise ValueError(f"line {lineno}: feasible row without recorded flows")
    return Dataset(
        data[:, :lab_col], label, p_pcc, q_pcc, tuple(header[:lab_col]), n_pcc, meta
    )
