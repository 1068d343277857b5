"""Learned DS surrogates: feasibility polytope and quadratic PCC-flow models.

The feasibility classifier is a single affine layer followed by a max
aggregator and a sigmoid: o = W x + b, f = max(o), y = sigmoid(f).  A point
is classified feasible when f <= 0, so the decision boundary IS the polytope
A_FR x <= b_FR with A_FR = W and b_FR = -b; training the network trains the
polytope directly and nothing is lost in translation.

PCC flows over the feasible region are fitted by full quadratic least
squares.  Both models ship to the transmission side in a JSON bundle whose
schema admits no topology, impedance, or load fields.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .netmodel import CostPoly, PQChart, polygon_from_vertices
from .sampling import Dataset, json_text

F_CLAMP = 30.0  # sigmoid saturates to within 1e-13 beyond this
FORWARD_ROWS = 128  # rows of W x + b formed at once, 1 MB at 1000 nodes


# ---------------------------------------------------------------------------
# Max-aggregator network / polytope
# ---------------------------------------------------------------------------


@dataclass
class PolytopeModel:
    """w, b of the affine layer; facets are a_fr = w, b_fr = -b."""

    w: np.ndarray  # (n_h, n_x)
    b: np.ndarray  # (n_h,)
    meta: dict = field(default_factory=dict)

    @property
    def n_h(self) -> int:
        return self.w.shape[0]

    @property
    def n_x(self) -> int:
        return self.w.shape[1]

    @property
    def a_fr(self) -> np.ndarray:
        return self.w

    @property
    def b_fr(self) -> np.ndarray:
        return -self.b


def _max_node(model: PolytopeModel, x: np.ndarray, scratch: np.ndarray | None = None):
    """(k, f) for each row of x: the first argmax k of o = W x + b, and f = o[k].

    o is formed FORWARD_ROWS rows at a time and b is added in place, so one
    block stays in cache; a (rows, n_h) array for a whole batch, plus its sum
    with b, is fresh memory that page-faults on every training step.  The
    blocks are formed in a (FORWARD_ROWS + 1, n_h) ``scratch``, which a
    caller that runs many passes owns and passes in.  With two or more
    nodes, a block of two or more rows rounds as the whole product does, so
    no block is left with a single row: BLAS computes a one-row product by
    another kernel.
    """
    n = len(x)
    k = np.empty(n, dtype=np.intp)
    f = np.empty(n)
    if scratch is None:
        scratch = np.empty((min(n, FORWARD_ROWS + 1), model.n_h))
    lo = 0
    while lo < n:
        hi = lo + FORWARD_ROWS
        if hi == n - 1:
            hi = n
        xb = x[lo:hi]
        o = np.matmul(xb, model.w.T, out=scratch[: len(xb)])
        o += model.b
        k[lo:hi] = kb = o.argmax(axis=1)
        f[lo:hi] = o[np.arange(len(o)), kb]
        lo = hi
    return k, f


def classify(model: PolytopeModel, x: np.ndarray):
    """0 (feasible) iff max(a_fr . x - b_fr) <= 0, else 1; batch-aware."""
    _, f = _max_node(model, np.atleast_2d(x))
    label = (f > 0).astype(np.int8)
    if np.ndim(x) == 1:
        return int(label[0])
    return label


def loss_and_grad(
    model: PolytopeModel,
    x: np.ndarray,
    y: np.ndarray,
    w_10: float,
    w_01: float,
    *,
    scratch: np.ndarray | None = None,
):
    """Weighted binary cross-entropy (sum reduction) and its exact gradient.

    Infeasible terms (y=1) carry w_10, feasible terms w_01.  The max routes
    each sample's gradient to its lowest-index argmax node.  log-sigmoid is
    evaluated as a softplus and f is clamped to +-F_CLAMP.  ``scratch`` is
    the forward pass's work array, as in ``_max_node``.
    """
    x = np.atleast_2d(x)
    y = np.asarray(y, dtype=float)
    k, f = _max_node(model, x, scratch)
    f = np.clip(f, -F_CLAMP, F_CLAMP)
    # -log sigmoid(f) = softplus(-f), -log(1 - sigmoid(f)) = softplus(f)
    loss = float(np.sum(w_10 * y * np.logaddexp(0.0, -f) + w_01 * (1.0 - y) * np.logaddexp(0.0, f)))
    sig = 1.0 / (1.0 + np.exp(-f))
    dldf = w_10 * y * (sig - 1.0) + w_01 * (1.0 - y) * sig
    # bincount sums each entry's terms in row order, as np.add.at does
    n_h, n_x = model.w.shape
    slots = (k[:, None] * n_x + np.arange(n_x)).ravel()
    grad_w = np.bincount(slots, weights=(dldf[:, None] * x).ravel(), minlength=n_h * n_x)
    grad_w = grad_w.reshape(n_h, n_x)
    grad_b = np.bincount(k, weights=dldf, minlength=n_h)
    return loss, grad_w, grad_b


@dataclass
class TrainConfig:
    lr: float = 1e-3
    lr_min: float = 0.0  # >0 enables cosine decay from lr to lr_min
    epochs: int = 500
    batch: int = 256
    seed: int = 0
    val_frac: float = 0.1
    patience: int = 25
    restarts: int = 1  # independent inits; best validation loss wins


def _train_once(z_fit, y_fit, z_val, y_val, n_h, w_10, w_01, hyper, rng):
    """One Adam run from a fresh init; returns (val_loss, w, b, best_epoch, epochs)."""
    # start with the data mean strictly inside the polytope: facet offsets
    # b_fr = -b = +0.5 keep max(o) negative there and the max-gradient alive
    w = rng.normal(0.0, 0.1, size=(n_h, z_fit.shape[1]))
    b = np.full(n_h, -0.5)
    model = PolytopeModel(w, b)
    scratch = np.empty((FORWARD_ROWS + 1, n_h))  # the forward pass's blocks, reused

    m_w = np.zeros_like(w)
    v_w = np.zeros_like(w)
    m_b = np.zeros_like(b)
    v_b = np.zeros_like(b)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    best = (np.inf, w.copy(), b.copy(), 0)
    stall = 0
    n_fit = len(z_fit)
    epoch = 0
    for epoch in range(1, hyper.epochs + 1):
        if hyper.lr_min > 0:
            phase = (epoch - 1) / max(1, hyper.epochs - 1)
            lr = hyper.lr_min + 0.5 * (hyper.lr - hyper.lr_min) * (1 + np.cos(np.pi * phase))
        else:
            lr = hyper.lr
        order = rng.permutation(n_fit)
        for lo in range(0, n_fit, hyper.batch):
            idx = order[lo : lo + hyper.batch]
            loss, gw, gb = loss_and_grad(model, z_fit[idx], y_fit[idx], w_10, w_01, scratch=scratch)
            if not np.isfinite(loss):
                raise RuntimeError(f"training diverged (non-finite loss) at epoch {epoch}")
            gw /= len(idx)
            gb /= len(idx)
            step += 1
            m_w = beta1 * m_w + (1 - beta1) * gw
            v_w = beta2 * v_w + (1 - beta2) * gw**2
            m_b = beta1 * m_b + (1 - beta1) * gb
            v_b = beta2 * v_b + (1 - beta2) * gb**2
            c1 = 1 - beta1**step
            c2 = 1 - beta2**step
            w -= lr * (m_w / c1) / (np.sqrt(v_w / c2) + eps)
            b -= lr * (m_b / c1) / (np.sqrt(v_b / c2) + eps)

        val_loss, _, _ = loss_and_grad(model, z_val, y_val, w_10, w_01, scratch=scratch)
        val_loss /= len(z_val)
        if val_loss < best[0] - 1e-12:
            best = (val_loss, w.copy(), b.copy(), epoch)
            stall = 0
        else:
            stall += 1
            if stall >= hyper.patience:
                break
    return best + (epoch,)


def train_fr(
    train: Dataset, n_h: int, w_10: float, w_01: float, hyper: TrainConfig | None = None
) -> PolytopeModel:
    """Train the max-aggregator classifier; returns raw-space facets.

    Inputs are standardized internally; the affine de-standardization is
    folded back into (w, b) before returning, so the model's facets act on
    unscaled x.  Adam mini-batches with early stopping on a held-out
    validation slice of the training set.  With hyper.restarts > 1 the run
    repeats from fresh inits and the best validation loss wins (the max
    routing trains one facet per sample, so some inits recruit facets
    better than others).  Deterministic under hyper.seed.
    """
    hyper = hyper or TrainConfig()
    labels = np.asarray(train.label, dtype=float)
    if not (np.any(labels == 0) and np.any(labels == 1)):
        raise ValueError("training set must contain both classes")
    rng = np.random.default_rng(hyper.seed)

    mu_x = train.x.mean(axis=0)
    sd_x = train.x.std(axis=0)
    sd_x[sd_x == 0] = 1.0
    z = (train.x - mu_x) / sd_x

    n_val = max(1, int(round(len(z) * hyper.val_frac)))
    perm = rng.permutation(len(z))
    val_idx, fit_idx = perm[:n_val], perm[n_val:]
    z_fit, y_fit = z[fit_idx], labels[fit_idx]
    z_val, y_val = z[val_idx], labels[val_idx]

    best = None
    for restart in range(max(1, hyper.restarts)):
        run = _train_once(z_fit, y_fit, z_val, y_val, n_h, w_10, w_01, hyper, rng)
        if best is None or run[0] < best[0]:
            best = run
            best_restart = restart
    val_loss, w, b, best_epoch, epochs_run = best

    # fold standardization into the facets: o = Wz (x-mu)/sd + bz
    w_raw = w / sd_x[None, :]
    b_raw = b - w_raw @ mu_x
    return PolytopeModel(
        w_raw,
        b_raw,
        meta={
            "n_h": n_h,
            "w_10": w_10,
            "w_01": w_01,
            "epochs_run": epochs_run,
            "best_epoch": best_epoch,
            "restart": best_restart,
            "lr": hyper.lr,
            "batch": hyper.batch,
            "seed": hyper.seed,
            "val_loss": val_loss,
        },
    )


@dataclass
class ClassMetrics:
    accuracy: float
    recall: float | None  # share of truly feasible points classified feasible
    specificity: float | None  # share of truly infeasible points caught
    n: int
    tp_feasible: int
    fn_feasible: int
    tn_infeasible: int
    fp_infeasible: int


def classification_metrics(model: PolytopeModel, test: Dataset) -> ClassMetrics:
    """Accuracy, recall (feasible class), specificity (infeasible class).

    Specificity is the safety-critical number: an infeasible point classified
    feasible would be handed to the market as usable flexibility.  Empty
    classes yield None rather than 0.
    """
    pred = classify(model, test.x)
    truth = test.label
    tp = int(np.sum((truth == 0) & (pred == 0)))
    fn = int(np.sum((truth == 0) & (pred == 1)))
    tn = int(np.sum((truth == 1) & (pred == 1)))
    fp = int(np.sum((truth == 1) & (pred == 0)))
    n = len(truth)
    return ClassMetrics(
        accuracy=(tp + tn) / n,
        recall=tp / (tp + fn) if tp + fn else None,
        specificity=tn / (tn + fp) if tn + fp else None,
        n=n,
        tp_feasible=tp,
        fn_feasible=fn,
        tn_infeasible=tn,
        fp_infeasible=fp,
    )


def prune_facets(model: PolytopeModel, bounds: tuple[np.ndarray, np.ndarray]) -> PolytopeModel:
    """Drop facet rows that cannot be violated inside the bounds box.

    Row i is redundant when max(a_i . x - b_i) <= 0 over the box intersected
    with the remaining rows (one LP per row, highs backend).  LP failures
    leave the row in place.  Classification on the box is unchanged.
    """
    from scipy.optimize import linprog

    x_min, x_max = np.asarray(bounds[0], float), np.asarray(bounds[1], float)
    a = model.a_fr.copy()
    b = model.b_fr.copy()
    keep = list(range(len(b)))
    i = 0
    while i < len(keep):
        row = keep[i]
        others = [r for r in keep if r != row]
        res = linprog(
            -a[row],
            A_ub=a[others] if others else None,
            b_ub=b[others] if others else None,
            bounds=list(zip(x_min, x_max)),
            method="highs",
        )
        if res.status == 0 and -res.fun - b[row] <= 1e-9:
            keep.pop(i)
        else:
            i += 1
    if len(keep) == len(b):
        return model
    pruned = replace(
        model,
        w=model.w[keep].copy(),
        b=model.b[keep].copy(),
        meta={**model.meta, "pruned_from": len(b)},
    )
    return pruned


# ---------------------------------------------------------------------------
# Quadratic PCC-flow regression
# ---------------------------------------------------------------------------


@dataclass
class QuadraticModel:
    """t(x) = x . a_quad . x + b_quad . x + c_quad (a_quad symmetric)."""

    a_quad: np.ndarray
    b_quad: np.ndarray
    c_quad: float
    target: str = ""  # "active" or "reactive"
    pcc_index: int = 0

    def __post_init__(self):
        if not np.allclose(self.a_quad, self.a_quad.T, atol=1e-12):
            raise ValueError("a_quad must be symmetric")

    def predict(self, x: np.ndarray) -> np.ndarray:
        x2 = np.atleast_2d(x)
        t = np.einsum("ni,ij,nj->n", x2, self.a_quad, x2) + x2 @ self.b_quad + self.c_quad
        return float(t[0]) if np.ndim(x) == 1 else t


def fr_to_dict(model: PolytopeModel) -> dict:
    """JSON form of the facets, {"W", "b"}: bundles and model files store it."""
    return {"W": model.w.tolist(), "b": model.b.tolist()}


def fr_from_dict(d: dict) -> PolytopeModel:
    """Inverse of ``fr_to_dict``; the model's meta starts empty."""
    return PolytopeModel(np.array(d["W"], float), np.array(d["b"], float))


def pcc_to_dict(entry: dict) -> dict:
    """JSON form of one PCC's quadratics, {"p": {"A", "b", "c"}, "q": {...}}.

    Bundles and the CLI's coupling-regression files both store this form.
    """
    out = {}
    for key in ("p", "q"):
        m = entry[key]
        out[key] = {"A": m.a_quad.tolist(), "b": m.b_quad.tolist(), "c": m.c_quad}
    return out


def pcc_from_dict(d: dict, pcc_index: int) -> dict:
    """Inverse of ``pcc_to_dict`` for the PCC at pcc_index."""
    return {
        key: QuadraticModel(
            np.array(d[key]["A"], float),
            np.array(d[key]["b"], float),
            float(d[key]["c"]),
            target=target,
            pcc_index=pcc_index,
        )
        for key, target in (("p", "active"), ("q", "reactive"))
    }


def _monomials(x: np.ndarray):
    n, d = x.shape
    cols = [np.ones(n)]
    for i in range(d):
        cols.append(x[:, i])
    pairs = []
    for i in range(d):
        for k in range(i, d):
            cols.append(x[:, i] * x[:, k])
            pairs.append((i, k))
    return np.column_stack(cols), pairs


def fit_quadratic(x: np.ndarray, target: np.ndarray, label: str = "", pcc_index: int = 0) -> QuadraticModel:
    """Least-squares fit of a full quadratic over monomials {1, x_i, x_i x_k}.

    Solved by SVD-backed least squares; a rank-deficient design matrix gives
    the minimum-norm solution and a warning.
    """
    x = np.atleast_2d(np.asarray(x, float))
    target = np.asarray(target, float)
    phi, pairs = _monomials(x)
    if len(x) < phi.shape[1]:
        raise ValueError(f"need at least {phi.shape[1]} rows, got {len(x)}")
    coef, _, rank, _ = np.linalg.lstsq(phi, target, rcond=None)
    if rank < phi.shape[1]:
        warnings.warn(
            f"quadratic design matrix is rank deficient ({rank}/{phi.shape[1]}); "
            "minimum-norm solution returned",
            stacklevel=2,
        )
    d = x.shape[1]
    c = float(coef[0])
    b = coef[1 : 1 + d].copy()
    a = np.zeros((d, d))
    for (i, k), cf in zip(pairs, coef[1 + d :]):
        if i == k:
            a[i, i] = cf
        else:
            a[i, k] = a[k, i] = cf / 2.0
    return QuadraticModel(a, b, c, target=label, pcc_index=pcc_index)


def regression_metrics(model: QuadraticModel, x: np.ndarray, target: np.ndarray):
    """(rmse, mae) of the model on the given rows."""
    err = model.predict(np.atleast_2d(x)) - np.asarray(target, float)
    if err.size == 0:
        raise ValueError("empty evaluation set")
    return float(np.sqrt(np.mean(err**2))), float(np.mean(np.abs(err)))


# ---------------------------------------------------------------------------
# DSO -> TSO bundle
# ---------------------------------------------------------------------------
#
# JSON schema (the only artifact crossing the privacy boundary):
#   {ds_id, n_pcc, n_dg, x_min[], x_max[], fr:{W[][], b[]},
#    pcc:[{p:{A[][], b[], c}, q:{A[][], b[], c}}], charts:[vertices],
#    costs:[{a, b, c}]}
# x layout is (v_pcc_1..r p.u., p_dg_1..n MW, q_dg_1..n MVAr); quadratic
# outputs are per-unit PCC consumption seen from the TS.  Anything outside
# this whitelist (branches, impedances, loads, topology, provenance meta) is
# rejected; provenance stays DS-side.

_BUNDLE_KEYS = {"ds_id", "n_pcc", "n_dg", "x_min", "x_max", "fr", "pcc", "charts", "costs"}
_FR_KEYS = {"W", "b"}
_PCC_KEYS = {"p", "q"}
_QUAD_KEYS = {"A", "b", "c"}
_COST_KEYS = {"a", "b", "c"}


@dataclass
class SurrogateBundle:
    ds_id: int
    n_pcc: int
    n_dg: int
    x_min: np.ndarray
    x_max: np.ndarray
    fr: PolytopeModel
    pcc: list[dict]  # per PCC: {"p": QuadraticModel, "q": QuadraticModel}
    charts: list[PQChart]
    costs: list[CostPoly]

    @property
    def n_x(self) -> int:
        return self.n_pcc + 2 * self.n_dg


class BundleSchemaError(ValueError):
    pass


def _require(cond: bool, msg: str):
    if not cond:
        raise BundleSchemaError(msg)


def _check_keys(d: dict, allowed: set, required: set, where: str):
    _require(isinstance(d, dict), f"{where}: expected an object")
    extra = set(d) - allowed
    _require(not extra, f"{where}: field(s) {sorted(extra)} not in the bundle schema")
    missing = required - set(d)
    _require(not missing, f"{where}: missing field(s) {sorted(missing)}")


def _require_finite(value, where: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise BundleSchemaError(f"{where}: expected numbers") from None
    _require(bool(np.all(np.isfinite(arr))), f"{where}: non-finite value")
    return arr


def validate_fr_dict(fr: dict, n_x: int, where: str = "fr") -> None:
    """Keys, shape and finite numbers of the facets; a zero row (0 <= -b) is refused."""
    _check_keys(fr, _FR_KEYS, _FR_KEYS, where)
    w = fr["W"]
    _require(len(w) >= 1 and all(len(row) == n_x for row in w), f"{where}: W must be n_h x n_x")
    _require(len(fr["b"]) == len(w), f"{where}: b length != n_h")
    w = _require_finite(w, f"{where}.W")
    _require_finite(fr["b"], f"{where}.b")
    zero = np.flatnonzero(~w.any(axis=1))
    if zero.size:
        raise BundleSchemaError(f"{where}.W[{zero[0]}]: all-zero facet row")


def validate_pcc_dict(entry: dict, n_x: int, where: str) -> None:
    """Keys, shapes and finite numbers of one PCC's {"p", "q"} quadratics."""
    _check_keys(entry, _PCC_KEYS, _PCC_KEYS, where)
    for key in ("p", "q"):
        qd, where_q = entry[key], f"{where}.{key}"
        _check_keys(qd, _QUAD_KEYS, _QUAD_KEYS, where_q)
        a = qd["A"]
        _require(len(a) == n_x and all(len(r) == n_x for r in a), f"{where_q}: A must be n_x x n_x")
        _require(len(qd["b"]) == n_x, f"{where_q}: b length != n_x")
        for part in ("A", "b", "c"):
            _require_finite(qd[part], f"{where_q}.{part}")


def validate_bundle_dict(d: dict) -> None:
    """Whitelist schema check; raises BundleSchemaError on any foreign field.

    Every number must be finite, every count an integer, every facet row
    nonzero and the box nonempty: a corrupt bundle is refused here, not
    reported later as an infeasible coupled solve.
    """
    _check_keys(d, _BUNDLE_KEYS, _BUNDLE_KEYS - {"charts"}, "bundle")
    for key in ("ds_id", "n_pcc", "n_dg"):
        _require(type(d[key]) is int, f"{key}: expected an integer")
    n_pcc, n_dg = d["n_pcc"], d["n_dg"]
    n_x = n_pcc + 2 * n_dg
    _require(n_pcc >= 1 and n_dg >= 0, "bundle: bad counts")
    _require(len(d["x_min"]) == n_x and len(d["x_max"]) == n_x, "bundle: x bounds length != n_x")
    x_min = _require_finite(d["x_min"], "x_min")
    x_max = _require_finite(d["x_max"], "x_max")
    empty = np.flatnonzero(x_min >= x_max)
    if empty.size:
        raise BundleSchemaError(f"x_min: x_min[{empty[0]}] >= x_max[{empty[0]}]")
    validate_fr_dict(d["fr"], n_x)
    _require(len(d["pcc"]) == n_pcc, "pcc: one entry per PCC required")
    for u, entry in enumerate(d["pcc"]):
        validate_pcc_dict(entry, n_x, f"pcc[{u}]")
    if "charts" in d:
        _require(len(d["charts"]) in (0, n_dg), "charts: need one vertex list per DG")
        for k, verts in enumerate(d["charts"]):
            _require(
                len(verts) >= 3 and all(len(v) == 2 for v in verts),
                f"charts[{k}]: need >=3 (p,q) vertices",
            )
            _require_finite(verts, f"charts[{k}]")
    _require(len(d["costs"]) == n_dg, "costs: one entry per DG required")
    for k, cd in enumerate(d["costs"]):
        _check_keys(cd, _COST_KEYS, _COST_KEYS, f"costs[{k}]")
        _require_finite([cd["a"], cd["b"], cd["c"]], f"costs[{k}]")


def export_bundle(bundle: SurrogateBundle, path) -> None:
    d = {
        "ds_id": bundle.ds_id,
        "n_pcc": bundle.n_pcc,
        "n_dg": bundle.n_dg,
        "x_min": list(map(float, bundle.x_min)),
        "x_max": list(map(float, bundle.x_max)),
        "fr": fr_to_dict(bundle.fr),
        "pcc": [pcc_to_dict(entry) for entry in bundle.pcc],
        "charts": [[list(v) for v in chart.vertices] for chart in bundle.charts],
        "costs": [{"a": c.a, "b": c.b, "c": c.c} for c in bundle.costs],
    }
    text = json_text(d)
    validate_bundle_dict(json.loads(text))
    Path(path).write_text(text)


def import_bundle(path) -> SurrogateBundle:
    with open(path) as fh:
        d = json.load(fh)
    validate_bundle_dict(d)
    fr = fr_from_dict(d["fr"])
    pcc = [pcc_from_dict(entry, u) for u, entry in enumerate(d["pcc"])]
    charts = [polygon_from_vertices(v) for v in d.get("charts", [])]
    costs = [CostPoly(c["a"], c["b"], c["c"]) for c in d["costs"]]
    return SurrogateBundle(
        ds_id=int(d["ds_id"]),
        n_pcc=int(d["n_pcc"]),
        n_dg=int(d["n_dg"]),
        x_min=np.array(d["x_min"], float),
        x_max=np.array(d["x_max"], float),
        fr=fr,
        pcc=pcc,
        charts=charts,
        costs=costs,
    )
