"""Privacy-preserving OPF: transmission dispatch against imported surrogates.

The DS networks are absent here by construction.  The problem is the
transmission case's standard AC-OPF (``acopf.assemble_standard``) extended
by the surrogates.  Each distribution system j acts on x_j = (v at its PCC
buses, DG p, DG q): the voltages are the TS's own ``vm`` columns, and only
the DG columns are added.  A facet block A_FR x_j <= b_FR stands in for the
DS's internal feasibility, and each PCC's regressions t_p(x_j), t_q(x_j)
enter the balance rows of their TS bus as a load.  Everything the assembly
touches comes from the transmission case and the SurrogateBundle files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acopf import (
    NlpOptions,
    NlpProblem,
    OpfSolution,
    append_linear_inequalities,
    assemble_standard,
    chart_rows,
    solve_nlp,
)
from .netmodel import NetworkCase
from .powerflow import LimitReport, check_limits, line_flows
from .surrogate import SurrogateBundle

# Limit tolerance at the verified point, above the re-solve's 1e-6 (p.u.
# voltages, rating ratios).  The pre-solve chart check uses the same value in
# MW/MVAr.  That is intended: the coupled OPF's chart rows act on DG columns
# in MW (``chart_rows`` at scale 1), so the 1e-6 its solver holds them to is
# in MW too, ten times inside this check.
VERIFY_TOL = 1e-5


def assemble_pp(
    ts_case: NetworkCase,
    bundles: dict[int, SurrogateBundle],
    charts_enforced: bool = True,
) -> NlpProblem:
    """Build the surrogate-coupled OPF: the TS's standard OPF plus an extension.

    Variables: the standard (theta, vm, pg, qg) of the TS, then one (DG p,
    DG q) block per DS in ascending ds_id; x_j reads its PCC voltages from
    the ``vm`` columns of its PCC buses, whose box is the TS band narrowed
    to the bundle's v range.  The TS callbacks take the full x; the DG costs
    and each PCC's regressions, a load on its bus's balance rows, are
    appended to what they return and to their patterns, every regression
    evaluated at once.  Facet and chart rows are the linear rows, after the
    TS's flow rows.  DS d owns its DG columns and the TS, its PCC ``vm``
    columns included, is the border, so each DS is a block of the Newton
    system.  ``meta["x_ds_cols"]`` maps each ds_id to the columns of its x_j.
    """
    ts = assemble_standard(ts_case)
    n = ts_case.n_bus
    ds_ids = sorted(bundles)
    for ds in ds_ids:
        if ds not in ts_case.pcc_map:
            raise ValueError(f"ts case declares no PCC buses for DS {ds}")
        bundle = bundles[ds]
        n_ts = len(ts_case.pcc_map[ds])
        if bundle.n_pcc != n_ts:
            raise ValueError(f"DS {ds}: bundle has {bundle.n_pcc} PCCs, ts case assigns {n_ts}")
        if bundle.fr.n_x != bundle.n_x:
            raise ValueError(f"DS {ds}: facet block width {bundle.fr.n_x} != n_x {bundle.n_x}")
        if len(bundle.costs) != bundle.n_dg:
            raise ValueError(f"DS {ds}: missing DG costs")
        if charts_enforced and bundle.charts and len(bundle.charts) != bundle.n_dg:
            raise ValueError(f"DS {ds}: chart count != n_dg")
    covered = [t for ds in ds_ids for _, t in ts_case.pcc_map[ds]]
    pcc_kind = [b.id for b in ts_case.buses if b.kind == "pcc"]
    if sorted(covered) != sorted(pcc_kind):
        raise ValueError(f"bundles cover PCC buses {sorted(covered)}, case has {sorted(pcc_kind)}")

    # column layout: the standard block, then per DS its DG p and q columns
    nb = ts.n
    vm0 = ts.var_slices["vm"].start
    lb, ub, x0 = ts.lb.copy(), ts.ub.copy(), ts.x0.copy()
    lb_parts, ub_parts = [lb], [ub]
    x_cols: dict[int, np.ndarray] = {}
    loads = []  # per PCC: (bus position, x_j columns, t_p, t_q)
    p_cols, costs = [], []  # DG generation cost sits on the p columns of each x_j
    pos = nb
    for ds in ds_ids:
        bundle = bundles[ds]
        r = bundle.n_pcc
        bus_ids = [t for _, t in ts_case.pcc_map[ds]]
        buses = [ts_case.bus_index(t) for t in bus_ids]
        cols = np.concatenate([vm0 + np.array(buses), np.arange(pos, pos + 2 * bundle.n_dg)])
        p_cols.extend(range(pos, pos + bundle.n_dg))
        costs.extend(bundle.costs)
        pos += 2 * bundle.n_dg
        x_cols[ds] = cols
        for u, (i, c) in enumerate(zip(buses, cols)):
            lo, hi = max(lb[c], bundle.x_min[u]), min(ub[c], bundle.x_max[u])
            if lo > hi:
                raise ValueError(
                    f"DS {ds}: bundle v range [{bundle.x_min[u]}, {bundle.x_max[u]}] misses "
                    f"the band [{lb[c]}, {ub[c]}] of TS bus {bus_ids[u]}"
                )
            lb[c], ub[c], x0[c] = lo, hi, np.clip(x0[c], lo, hi)
            loads.append((i, cols, bundle.pcc[u]["p"], bundle.pcc[u]["q"]))
        lb_parts.append(bundle.x_min[r:])
        ub_parts.append(bundle.x_max[r:])
    lb, ub = np.concatenate(lb_parts), np.concatenate(ub_parts)
    x0 = np.concatenate([x0, (lb[nb:] + ub[nb:]) / 2])
    nx = pos

    p_cols = np.array(p_cols, dtype=int)
    ca = np.array([c.a for c in costs])
    cb = np.array([c.b for c in costs])
    cc = np.array([c.c for c in costs])
    col_owner = np.full(nx, -1)  # DS d owns its DG columns; the TS is the border
    for ds in ds_ids:
        col_owner[x_cols[ds][bundles[ds].n_pcc :]] = ds

    # every PCC's two regressions stacked, p then q, each over its x_j padded
    # with zeros to the widest x_j: model r adds t_r(x_j) to balance row
    # rows[r], with its gradient on the row and 2 lam[rows[r]] a_quad on
    # the Hessian; pad marks the real entries
    width = max(len(cols) for _, cols, _, _ in loads)
    idx = np.zeros((2 * len(loads), width), dtype=int)
    pad = np.zeros((2 * len(loads), width), dtype=bool)
    quad = np.zeros((2 * len(loads), width, width))
    lin = np.zeros((2 * len(loads), width))
    const = np.zeros(2 * len(loads))
    rows = np.zeros(2 * len(loads), dtype=int)
    for u, (i, cols, t_p, t_q) in enumerate(loads):
        m = len(cols)
        for r, row, t in ((2 * u, i, t_p), (2 * u + 1, n + i, t_q)):
            idx[r, :m], pad[r, :m], rows[r] = cols, True, row
            quad[r, :m, :m], lin[r, :m], const[r] = t.a_quad, t.b_quad, t.c_quad
    # the Hessian blocks sum each PCC's p and q models
    pair = pad[::2, :, None] & pad[::2, None, :]
    jac_at = (np.broadcast_to(rows[:, None], pad.shape)[pad], idx[pad])
    hess_at = (
        np.broadcast_to(idx[::2, :, None], pair.shape)[pair],
        np.broadcast_to(idx[::2, None, :], pair.shape)[pair],
    )

    def objective(x):
        f, grad = ts.objective(x)
        p = x[p_cols]
        grad[p_cols] = 2 * ca * p + cb
        return f + float(np.sum(ca * p * p + cb * p + cc)), grad

    def equalities(x):
        g, jac = ts.equalities(x)
        xs = np.where(pad, x[idx], 0.0)
        ax = np.einsum("rjk,rk->rj", quad, xs)
        g[rows] += np.einsum("rj,rj->r", xs, ax + lin) + const
        return g, np.concatenate([jac, (2 * ax + lin)[pad]])

    def lag_hess(x, sigma, lam, mu):
        blocks = 2 * lam[rows, None, None] * quad
        return np.concatenate(
            [ts.lag_hess(x, sigma, lam, mu), (blocks[::2] + blocks[1::2])[pair], sigma * 2 * ca]
        )

    problem = NlpProblem(
        x0=x0,
        lb=lb,
        ub=ub,
        objective=objective,
        lag_hess=lag_hess,
        hess_at=tuple(np.concatenate(z) for z in zip(ts.hess_at, hess_at, (p_cols, p_cols))),
        equalities=equalities,
        eq_at=tuple(np.concatenate(z) for z in zip(ts.eq_at, jac_at)),
        inequalities=ts.inequalities,
        ineq_at=ts.ineq_at,
        var_slices=ts.var_slices,
        meta={
            **ts.meta,
            "dg_gens": [],  # the DGs are the x_j blocks, not TS generator columns
            "x_ds_cols": x_cols,
        },
        col_owner=col_owner,
    )

    # per DS its facet rows, then its chart rows
    for ds in ds_ids:
        bundle, cols = bundles[ds], x_cols[ds]
        n_h = bundle.fr.n_h
        facets = (np.repeat(np.arange(n_h), len(cols)), np.tile(cols, n_h))
        append_linear_inequalities(problem, facets, bundle.fr.a_fr.ravel(), bundle.fr.b_fr)
        if charts_enforced and bundle.charts:
            r, n_dg = bundle.n_pcc, bundle.n_dg
            append_linear_inequalities(
                problem, *chart_rows(bundle.charts, cols[r : r + n_dg], cols[r + n_dg :])
            )
    return problem


def solve_pp(problem: NlpProblem, opts: NlpOptions | None = None) -> OpfSolution:
    """Solve the assembled problem; x_ds views give DG dispatch directly."""
    return solve_nlp(problem, opts)


# ---------------------------------------------------------------------------
# Ground-truth verification
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    feasible_true: bool
    violations: dict  # "ts" and each ds_id -> LimitReport from the re-solve
    verified_cost: float
    raw_cost: float
    pcc_flow_error: float  # max |regression - re-solved flow|, MW/MVAr
    message: str = ""
    solve_time: float = 0.0
    iterations: int = 0  # of the re-solve


def verify_dispatch(
    integrated_case: NetworkCase,
    pp_solution: OpfSolution,
    bundles: dict[int, SurrogateBundle],
    opts: NlpOptions | None = None,
) -> VerificationReport:
    """Check a PP dispatch against the full network it was meant for.

    Every DG setpoint is first held against the chart that binds it on the
    integrated case (``all_dg_charts``); one outside its chart fails by name,
    with no re-solve.  Otherwise the DG columns of the integrated case's
    standard OPF are pinned to their setpoints (lb == ub) and the rest is
    re-solved, so transmission generators may re-balance the regression
    error.  Feasibility of the PP dispatch means that re-solve succeeds
    within every limit; its objective is the defensible cost of the dispatch.
    A failed re-solve's message names the worst broken voltage band and
    rating of its last iterate, with their owners.
    """
    if not pp_solution.optimal:
        raise ValueError("pp solution is not optimal")
    dg_map = integrated_case.meta.get("dg_map")
    if not dg_map:
        raise ValueError("integrated case lacks DG ownership metadata")
    raw = float(pp_solution.objective)

    problem = assemble_standard(integrated_case)
    pg, qg = problem.var_slices["pg"].start, problem.var_slices["qg"].start
    chart_of = dict(zip(problem.meta["dg_gens"], integrated_case.all_dg_charts()))
    base = integrated_case.base_mva
    breaches = []
    for ds, gidx in dg_map.items():
        xj = pp_solution.x_ds[ds]
        r = bundles[ds].n_pcc
        n_dg = bundles[ds].n_dg
        if len(gidx) != n_dg:
            raise ValueError(f"DS {ds}: {len(gidx)} DGs in case, bundle has {n_dg}")
        for k, g in enumerate(gidx):
            p, q = float(xj[r + k]), float(xj[r + n_dg + k])
            if not (np.isfinite(p) and np.isfinite(q)):
                # a NaN pin would leave its column free, as NaN != NaN
                breaches.append(f"DS {ds} DG {k + 1} setpoint ({p} MW, {q} MVAr) is not finite")
                continue
            chart = chart_of.get(g)
            excess = np.max(chart.a_pq @ (p, q) - chart.b_pq) if chart else 0.0
            if excess > VERIFY_TOL:
                breaches.append(
                    f"DS {ds} DG {k + 1} setpoint ({p:.6g} MW, {q:.6g} MVAr) "
                    f"lies {excess:.3g} MW/MVAr outside its chart"
                )
            problem.lb[pg + g] = problem.ub[pg + g] = p / base
            problem.lb[qg + g] = problem.ub[qg + g] = q / base
    if breaches:
        return VerificationReport(
            feasible_true=False,
            violations={},
            verified_cost=float("nan"),
            raw_cost=raw,
            pcc_flow_error=float("nan"),
            message="; ".join(breaches),
        )

    sol = solve_nlp(problem, opts)
    # limit violations of the re-solve's last iterate, optimal or not,
    # attributed to the TS (-1) or the DS that owns them
    v = sol.v * np.exp(1j * sol.theta)
    rep = check_limits(integrated_case, v, tol=VERIFY_TOL)
    bus_ds = {b: ds for ds, own in integrated_case.meta["ds_buses"].items() for b in own}
    branch_ds = np.array([-1 if d is None else d for d in integrated_case.meta["branch_ds"]])
    violations = {}
    for dom in ("ts", *integrated_case.meta["ds_buses"]):
        key = -1 if dom == "ts" else dom
        v_rows = tuple(row for row in rep.v_violations if bus_ds.get(row[0], -1) == key)
        flow_rows = tuple(row for row in rep.flow_violations if branch_ds[row[0]] == key)
        violations[dom] = LimitReport(
            ok=not v_rows and not flow_rows,
            v_violations=v_rows,
            flow_violations=flow_rows,
            max_flow_ratio=max((s / cap for _, s, cap in flow_rows), default=0.0),
        )
    if not sol.optimal:
        return VerificationReport(
            feasible_true=False,
            violations=violations,
            verified_cost=float("nan"),
            raw_cost=raw,
            pcc_flow_error=float("nan"),
            message=f"re-solve {sol.status}: {sol.message}; "
            + _worst_limits(integrated_case, violations),
            solve_time=sol.solve_time,
            iterations=sol.iterations,
        )

    # regression error at the verified operating point: re-evaluate each
    # bundle at (re-solved PCC voltages, pinned DG setpoints)
    sf, st = line_flows(integrated_case, v)
    tab = integrated_case.branch_table
    err = 0.0
    for ds in dg_map:
        bundle = bundles[ds]
        pcc = [integrated_case.bus_index(t) for _, t in integrated_case.pcc_map[ds]]
        xj = pp_solution.x_ds[ds].copy()
        xj[: len(pcc)] = np.abs(v[pcc])
        own = tab.closed & (branch_ds == ds)
        for u, i in enumerate(pcc):
            # consumption seen from the TS, per unit as the regressions give it
            into_ds = (sf[own & (tab.f == i)].sum() + st[own & (tab.t == i)].sum()) / base
            err = max(err, abs(bundle.pcc[u]["p"].predict(xj) - into_ds.real) * base)
            err = max(err, abs(bundle.pcc[u]["q"].predict(xj) - into_ds.imag) * base)

    return VerificationReport(
        feasible_true=all(r.ok for r in violations.values()),
        violations=violations,
        verified_cost=float(sol.objective),
        raw_cost=raw,
        pcc_flow_error=float(err),
        solve_time=sol.solve_time,
        iterations=sol.iterations,
    )


def _worst_limits(case: NetworkCase, violations: dict) -> str:
    """The worst broken voltage band and the worst broken rating, each with its owner."""
    owner = {dom: "TS" if dom == "ts" else f"DS {dom}" for dom in violations}
    v_rows = [(dom, *row) for dom, lim in violations.items() for row in lim.v_violations]
    flow_rows = [(dom, *row) for dom, lim in violations.items() for row in lim.flow_violations]
    parts = []
    if v_rows:
        dom, bus, vm, lo, hi = max(v_rows, key=lambda r: max(r[3] - r[2], r[2] - r[4]))
        parts.append(f"worst voltage: {owner[dom]} bus {bus} at {vm:.6g} p.u., band [{lo}, {hi}]")
    if flow_rows:
        dom, i, s_end, cap = max(flow_rows, key=lambda r: r[2] / r[3])
        br = case.branches[i]
        parts.append(
            f"worst rating: {owner[dom]} branch {br.from_bus}-{br.to_bus} at "
            f"{s_end / cap:.4g} of its {cap:.4g} MVA"
        )
    return "; ".join(parts) or "no voltage band or rating is broken at the last iterate"
