"""Correctness checks computed apart from the program.

Admittances are stamped from the branch list, the power flow is a
rectangular-coordinate Newton method (the program's is polar), chart
membership is a cross-product test on the chart vertices and the quadratic
design matrix is built column by column.  The one program call is the
classifier whose output a check compares against the facet route.  Each
``check_*`` function returns a list of problems; an empty list means the
output passed.  Inputs are plain case and result objects, so the tests can
hand in deliberately broken outputs.
"""

from __future__ import annotations

import json
import math

import numpy as np

from gridveil import sampling, surrogate

# the program's own limit-check tolerance (powerflow.check_limits)
LIMIT_TOL = 1e-9
# labels may differ where the worst limit margin is this close to the tolerance
LABEL_BAND = 1e-7
FLOW_TOL_MW = 1e-6
BALANCE_TOL_MVA = 1e-3
FACET_TOL = 1e-6
CHART_TOL_MW = 1e-6
COST_RTOL = 1e-6


# ---------------------------------------------------------------- network


def stamp_ybus(case):
    """Dense bus admittance and per-branch end admittances (pi model)."""
    index = {b.id: i for i, b in enumerate(case.buses)}
    n = len(case.buses)
    y = np.zeros((n, n), dtype=complex)
    ends = []  # (f, t, yff, yft, ytf, ytt, s_max)
    for br in case.branches:
        if not br.status:
            continue
        f, t = index[br.from_bus], index[br.to_bus]
        ys = 1.0 / complex(br.r, br.x)
        half_b = 0.5j * br.b_sh
        tap = br.tap or 1.0
        yff, yft, ytf, ytt = (ys + half_b) / tap**2, -ys / tap, -ys / tap, ys + half_b
        y[f, f] += yff
        y[f, t] += yft
        y[t, f] += ytf
        y[t, t] += ytt
        ends.append((f, t, yff, yft, ytf, ytt, br.s_max))
    return y, ends, index


def newton_rect(y, s_spec, fixed, v_fixed, tol=1e-12, max_iter=40):
    """Rectangular Newton power flow: buses in ``fixed`` hold ``v_fixed``.

    Every other bus is PQ with specified injection ``s_spec`` (p.u.).
    Returns (converged, complex voltages).
    """
    n = len(s_spec)
    free = np.setdiff1d(np.arange(n), fixed)
    v = np.ones(n, dtype=complex)
    v[fixed] = v_fixed
    for _ in range(max_iter):
        i = y @ v
        mis = (v * np.conj(i) - s_spec)[free]
        if np.max(np.abs(mis), initial=0.0) < tol:
            return True, v
        # S = V conj(Y V); e and f are the real and imaginary parts of V
        ds_de = np.diag(np.conj(i)) + np.diag(v) @ np.conj(y)
        ds_df = 1j * np.diag(np.conj(i)) - 1j * np.diag(v) @ np.conj(y)
        jac = np.block(
            [
                [ds_de[np.ix_(free, free)].real, ds_df[np.ix_(free, free)].real],
                [ds_de[np.ix_(free, free)].imag, ds_df[np.ix_(free, free)].imag],
            ]
        )
        try:
            step = np.linalg.solve(jac, np.concatenate([mis.real, mis.imag]))
        except np.linalg.LinAlgError:
            return False, v
        m = len(free)
        v[free] -= step[:m] + 1j * step[m:]
        if not np.all(np.isfinite(v)):
            return False, v
    return False, v


def worst_margin(case, v, ends, base):
    """Largest limit excess: voltage band error or relative MVA overload."""
    vm = np.abs(v)
    lo = np.array([b.v_min for b in case.buses])
    hi = np.array([b.v_max for b in case.buses])
    worst = float(np.max(np.maximum(lo - vm, vm - hi)))
    for f, t, yff, yft, ytf, ytt, s_max in ends:
        if s_max <= 0:
            continue
        s_f = v[f] * np.conj(yff * v[f] + yft * v[t]) * base
        s_t = v[t] * np.conj(ytf * v[f] + ytt * v[t]) * base
        over = (max(abs(s_f), abs(s_t)) - s_max) / max(1.0, s_max)
        worst = max(worst, over)
    return worst


class DsOracle:
    """Independent DS response: label and PCC export flows of one point."""

    def __init__(self, case):
        self.case = case
        self.y, self.ends, index = stamp_ybus(case)
        couplings = next(iter(case.pcc_map.values()))
        self.pcc = np.array([index[ds_bus] for ds_bus, _ in couplings])
        self.gen_bus = np.array([index[g.bus] for g in case.generators], dtype=int)
        self.load = np.array([complex(b.p_d, b.q_d) for b in case.buses])
        self.base = case.base_mva

    def response(self, x):
        """(converged, worst margin, p export MW, q export MVAr) at x."""
        r, ng = len(self.pcc), len(self.gen_bus)
        s = -self.load.copy()
        np.add.at(s, self.gen_bus, x[r : r + ng] + 1j * x[r + ng : r + 2 * ng])
        ok, v = newton_rect(self.y, s / self.base, self.pcc, x[:r].astype(complex))
        if not ok:
            return False, math.inf, None, None
        s_inj = v * np.conj(self.y @ v) * self.base
        export = -(s_inj[self.pcc] + self.load[self.pcc])
        return True, worst_margin(self.case, v, self.ends, self.base), export.real, export.imag


def inside_polygon(vertices, p, q, tol=1e-9):
    """Membership of points (p, q) in a convex polygon given by its vertices."""
    pts = np.asarray(vertices, dtype=float)
    centre = pts.mean(axis=0)
    pts = pts[np.argsort(np.arctan2(pts[:, 1] - centre[1], pts[:, 0] - centre[0]))]
    nxt = np.roll(pts, -1, axis=0)
    inside = np.ones(np.shape(p), dtype=bool)
    for (x0, y0), (x1, y1) in zip(pts, nxt):
        length = math.hypot(x1 - x0, y1 - y0)
        cross = (x1 - x0) * (q - y0) - (y1 - y0) * (p - x0)
        inside &= cross >= -tol * length
    return inside


def case_box(case, ds_id):
    """Sampling box (v_pcc, p_dg, q_dg) from bus bands and chart vertices."""
    couplings = case.pcc_map[ds_id]
    v_lo = [next(b.v_min for b in case.buses if b.id == d) for d, _ in couplings]
    v_hi = [next(b.v_max for b in case.buses if b.id == d) for d, _ in couplings]
    verts = [np.asarray(c.vertices) for c in case.charts_for(ds_id)]
    lo = v_lo + [v[:, 0].min() for v in verts] + [v[:, 1].min() for v in verts]
    hi = v_hi + [v[:, 0].max() for v in verts] + [v[:, 1].max() for v in verts]
    return np.array(lo), np.array(hi)


# ---------------------------------------------------------------- labelling


def check_dataset(case, data, reread, oracle, n_resolve):
    """Checks of one labelled dataset and its CSV round trip."""
    problems = []
    ds_id = next(iter(case.pcc_map))
    r, ng = data.n_pcc, case.n_gen
    x, label = data.x, data.label
    flows = np.hstack([data.p_pcc, data.q_pcc])

    inside = np.ones(len(x), dtype=bool)
    for k, chart in enumerate(case.charts_for(ds_id)):
        inside &= inside_polygon(chart.vertices, x[:, r + k], x[:, r + ng + k])
    outside = ~inside
    if np.any(label[outside] != 1) or not np.all(np.isnan(flows[outside])):
        problems.append(f"{case.name}: a row outside its DG chart is not labelled 1 with NaN flows")
    if not np.all(np.isfinite(flows[label == 0])):
        problems.append(f"{case.name}: a feasible row lacks finite PCC flows")

    lo, hi = case_box(case, ds_id)
    n = len(x)
    for k in range(x.shape[1]):
        strata = np.floor((x[:, k] - lo[k]) / (hi[k] - lo[k]) * n).astype(int)
        if not np.array_equal(np.sort(strata), np.arange(n)):
            problems.append(f"{case.name}: column {k} is not one point per stratum")

    feas = label == 0
    load = sum(b.p_d for b in case.buses)
    losses = x[feas, r : r + ng].sum(axis=1) - load - data.p_pcc[feas].sum(axis=1)
    if np.any(losses < -FLOW_TOL_MW):
        problems.append(f"{case.name}: negative active losses {losses.min():.3g} MW")

    rows = np.flatnonzero(inside)[:n_resolve]
    for i in rows:
        ok, margin, p, q = oracle.response(x[i])
        own_label = 0 if ok and margin <= LIMIT_TOL else 1
        if own_label != label[i] and not (ok and abs(margin - LIMIT_TOL) < LABEL_BAND):
            problems.append(f"{case.name}: row {i} labelled {label[i]}, independent flow says {own_label}")
        if own_label == 0 and label[i] == 0:
            err = max(np.max(np.abs(p - data.p_pcc[i])), np.max(np.abs(q - data.q_pcc[i])))
            if err > FLOW_TOL_MW:
                problems.append(f"{case.name}: row {i} PCC flow off by {err:.3g} MW")

    same = (
        reread.names == data.names
        and reread.n_pcc == data.n_pcc
        and np.array_equal(reread.label, data.label)
        and all(
            np.array_equal(a, b, equal_nan=True)
            for a, b in ((reread.x, data.x), (reread.p_pcc, data.p_pcc), (reread.q_pcc, data.q_pcc))
        )
    )
    if not same:
        problems.append(f"{case.name}: read_csv(write_csv(data)) differs from data")
    return problems


# ---------------------------------------------------------------- offer


def monomial_design(x):
    """Columns 1, x_i, then x_i x_k for i <= k."""
    d = x.shape[1]
    cols = [np.ones(len(x))] + [x[:, i] for i in range(d)]
    cols += [x[:, i] * x[:, k] for i in range(d) for k in range(i, d)]
    return np.column_stack(cols)


def quadratic_coefficients(model):
    """The model's coefficient vector in monomial_design's column order."""
    a = model.a_quad
    d = len(model.b_quad)
    pairs = [a[i, i] if i == k else 2.0 * a[i, k] for i in range(d) for k in range(i, d)]
    return np.concatenate([[model.c_quad], model.b_quad, pairs])


def normal_equation_residual(x, target, model):
    """max |Phi^T (Phi theta - t)|, relative to its rounding-error scale."""
    phi = monomial_design(x)
    theta = quadratic_coefficients(model)
    grad = phi.T @ (phi @ theta - target)
    scale = np.abs(phi).T @ (np.abs(phi) @ np.abs(theta) + np.abs(target))
    return float(np.max(np.abs(grad) / scale))


def _numbers(node, out):
    if isinstance(node, dict):
        for v in node.values():
            _numbers(v, out)
    elif isinstance(node, list):
        for v in node:
            _numbers(v, out)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out.add(float(node))


def check_offer(case, bundle_path, built, imported, train, test, metrics, n_points, rng):
    """Checks of one offer: facets, classifier quality, fits, bundle round trip."""
    problems = []
    with open(bundle_path) as fh:
        doc = json.load(fh)

    # facet route from the exported document: infeasible iff W x + b > 0
    w = np.array(doc["fr"]["W"])
    b_fr = -np.array(doc["fr"]["b"])
    lo, hi = np.array(doc["x_min"]), np.array(doc["x_max"])
    span = hi - lo
    pts = rng.uniform(lo - 0.2 * span, hi + 0.2 * span, (n_points, len(lo)))
    excess = np.max(pts @ w.T - b_fr, axis=1)
    keep = np.abs(excess) > 1e-9
    facet_label = (excess[keep] > 0).astype(np.int8)
    problems += _forward_pass_disagreement(imported, pts[keep], facet_label, train.n_pcc)

    majority = max(np.mean(test.label == 0), np.mean(test.label == 1))
    if not metrics.accuracy > majority:
        problems.append(f"accuracy {metrics.accuracy:.4f} does not beat the majority guess {majority:.4f}")

    feas = train.label == 0
    for u, pair in enumerate(built.pcc):
        for key, raw in (("p", train.p_pcc), ("q", train.q_pcc)):
            rel = normal_equation_residual(train.x[feas], -raw[feas, u] / case.base_mva, pair[key])
            if rel > 1e-9:
                problems.append(f"pcc {u + 1} {key}: normal equations off by {rel:.3g} (relative)")

    same = (
        imported.ds_id == built.ds_id
        and np.array_equal(imported.fr.w, built.fr.w)
        and np.array_equal(imported.fr.b, built.fr.b)
        and np.array_equal(imported.x_min, built.x_min)
        and np.array_equal(imported.x_max, built.x_max)
        and all(
            np.array_equal(ib[k].a_quad, bb[k].a_quad)
            and np.array_equal(ib[k].b_quad, bb[k].b_quad)
            and ib[k].c_quad == bb[k].c_quad
            for ib, bb in zip(imported.pcc, built.pcc)
            for k in ("p", "q")
        )
        and [c.vertices for c in imported.charts] == [c.vertices for c in built.charts]
        and [(c.a, c.b, c.c) for c in imported.costs] == [(c.a, c.b, c.c) for c in built.costs]
    )
    if not same:
        problems.append("import_bundle(export_bundle(b)) does not reproduce b")

    private = set()
    for br in case.branches:
        private.update(v for v in (br.r, br.x, br.b_sh) if v)
    for bus in case.buses:
        private.update(v for v in (bus.p_d, bus.q_d) if v)
    numbers: set = set()
    # charts and costs are authored disclosures, not learned content
    _numbers({k: v for k, v in doc.items() if k not in ("charts", "costs")}, numbers)
    shared = numbers & private
    if shared:
        problems.append(f"bundle shares {len(shared)} number(s) with impedances or loads")
    return problems


def _forward_pass_disagreement(bundle, pts, facet_label, n_pcc):
    """Compare the program's classifier with the facet route, point by point.

    classification_metrics scores the model against the facet-route labels,
    so a wrong count of zero means agreement on every point.
    """
    nan = np.full((len(pts), n_pcc), np.nan)
    probe = sampling.Dataset(pts, facet_label, nan, nan.copy(), (), n_pcc)
    m = surrogate.classification_metrics(bundle.fr, probe)
    wrong = m.fn_feasible + m.fp_infeasible
    return [f"forward pass disagrees with the facet route on {wrong} point(s)"] if wrong else []


# ---------------------------------------------------------------- dispatch


def bus_balance_error(case, y, sol):
    """max |V conj(Y V) - (S_gen - S_load)| in MVA at the solution."""
    index = {b.id: i for i, b in enumerate(case.buses)}
    v = sol.v * np.exp(1j * sol.theta)
    s_net = v * np.conj(y @ v) * case.base_mva
    s_gen = np.zeros(len(case.buses), dtype=complex)
    for g, gen in enumerate(case.generators):
        s_gen[index[gen.bus]] += sol.p_g[g] + 1j * sol.q_g[g]
    load = np.array([complex(b.p_d, b.q_d) for b in case.buses])
    return float(np.max(np.abs(s_net - (s_gen - load))))


def check_trial(case, y, bundles, std, pp, report):
    """Checks of one paired trial (standard solve, PP solve, verification)."""
    problems = []
    if not std.optimal:
        return [f"standard OPF {std.status}: {std.message}"]
    if not pp.optimal:
        return [f"PP OPF {pp.status}: {pp.message}"]
    if report is None:
        return ["dispatch was not verified"]
    if report.message:
        problems.append(f"verification re-solve failed: {report.message}")

    err = bus_balance_error(case, y, std)
    if err > BALANCE_TOL_MVA:
        problems.append(f"standard solution bus balance off by {err:.3g} MVA")

    for ds, bundle in bundles.items():
        xj = pp.x_ds[ds]
        excess = bundle.fr.a_fr @ xj - bundle.fr.b_fr
        if np.max(excess) > FACET_TOL:
            problems.append(f"DS {ds}: dispatch violates a facet by {np.max(excess):.3g}")
        r, nd = bundle.n_pcc, bundle.n_dg
        for k, chart in enumerate(bundle.charts):
            if not inside_polygon(chart.vertices, xj[r + k], xj[r + nd + k], CHART_TOL_MW):
                problems.append(f"DS {ds}: DG {k + 1} dispatched outside its chart")

    if not report.feasible_true:
        problems.append("dispatch verified infeasible on the integrated network")
    floor = std.objective * (1 - COST_RTOL) - COST_RTOL
    if not report.verified_cost >= floor:
        problems.append(
            f"verified cost {report.verified_cost:.6f} below the standard optimum {std.objective:.6f}"
        )
    return problems
