"""Privacy-preserving OPF: transmission dispatch against imported surrogates.

The DS networks are absent here by construction.  The problem is the
transmission case's standard AC-OPF (``acopf.assemble_standard``) extended
by the surrogates: each distribution system contributes one variable block
x_j = (v at its PCC buses, DG p, DG q), a facet block A_FR x_j <= b_FR
standing in for its internal feasibility, and quadratic couplings tying the
regression-predicted PCC flows to pseudo sources at the PCC buses.
Everything the assembly touches comes from the transmission case and the
SurrogateBundle files.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .acopf import (
    NlpOptions,
    NlpProblem,
    OpfSolution,
    append_linear_inequalities,
    assemble_standard,
    assemble_polygon_extension,
    chart_rows,
    solve_nlp,
)
from .netmodel import NetworkCase
from .powerflow import LimitReport, check_limits, line_flows
from .surrogate import QuadraticModel, SurrogateBundle


@dataclass
class PpProblem:
    """Assembled privacy-preserving OPF with its inputs kept for reporting."""

    ts_case: NetworkCase
    bundles: dict[int, SurrogateBundle]
    problem: NlpProblem
    pcc_order: dict[int, tuple[int, ...]]  # ds_id -> TS bus ids, x_j v order


def _quad_box_bound(model: QuadraticModel, x_min: np.ndarray, x_max: np.ndarray) -> float:
    """Cheap interval bound on |t(x)| over the box (for pseudo-source limits)."""
    m = np.maximum(np.abs(x_min), np.abs(x_max))
    return float(abs(model.c_quad) + np.abs(model.b_quad) @ m + m @ np.abs(model.a_quad) @ m)


def assemble_pp(
    ts_case: NetworkCase,
    bundles: dict[int, SurrogateBundle],
    charts_enforced: bool = False,
) -> PpProblem:
    """Build the surrogate-coupled OPF: the TS's standard OPF plus an extension.

    Variables: the standard (theta, vm, pg, qg) of the TS, then pseudo-source
    injections (px, qx) at every PCC bus, then one x_j block per DS in
    ascending ds_id.  The pseudo sources enter the bus balance like
    generators; couplings t_p(x_j) + px = 0 and t_q(x_j) + qx = 0 hand them
    the regression outputs, and v-link rows pin each x_j voltage component to
    the PCC bus magnitude.  Facet and chart rows are the problem's linear
    rows (NlpProblem.a_lin), after the TS's flow rows.
    """
    ts = assemble_standard(ts_case)
    n = ts_case.n_bus
    ds_ids = sorted(bundles)
    pcc_order: dict[int, tuple[int, ...]] = {}
    for ds in ds_ids:
        if ds not in ts_case.pcc_map:
            raise ValueError(f"ts case declares no PCC buses for DS {ds}")
        ts_buses = tuple(t for _, t in ts_case.pcc_map[ds])
        bundle = bundles[ds]
        if bundle.n_pcc != len(ts_buses):
            raise ValueError(
                f"DS {ds}: bundle has {bundle.n_pcc} PCCs, ts case assigns {len(ts_buses)}"
            )
        if bundle.fr.n_x != bundle.n_x:
            raise ValueError(f"DS {ds}: facet block width {bundle.fr.n_x} != n_x {bundle.n_x}")
        if len(bundle.costs) != bundle.n_dg:
            raise ValueError(f"DS {ds}: missing DG costs")
        if charts_enforced and bundle.charts and len(bundle.charts) != bundle.n_dg:
            raise ValueError(f"DS {ds}: chart count != n_dg")
        pcc_order[ds] = ts_buses
    covered = [b for ds in ds_ids for b in pcc_order[ds]]
    pcc_kind = [b.id for b in ts_case.buses if b.kind == "pcc"]
    if sorted(covered) != sorted(pcc_kind):
        raise ValueError(f"bundles cover PCC buses {sorted(covered)}, case has {sorted(pcc_kind)}")

    # variable layout: the standard block, then (px, qx), then the x_j blocks
    nb = ts.n
    npcc = len(covered)
    i_px = slice(nb, nb + npcc)
    i_qx = slice(nb + npcc, nb + 2 * npcc)
    x_slices: dict[int, slice] = {}
    pos = i_qx.stop
    for ds in ds_ids:
        x_slices[ds] = slice(pos, pos + bundles[ds].n_x)
        pos += bundles[ds].n_x
    nx = pos

    # PCCs in pseudo-source column order; per PCC and direction one coupling
    # (x_j block, regression, pseudo-source column)
    pccs = [(ds, u) for ds in ds_ids for u in range(bundles[ds].n_pcc)]
    couplings = [
        (x_slices[ds], bundles[ds].pcc[u][key], isl.start + c)
        for c, (ds, u) in enumerate(pccs)
        for key, isl in (("p", i_px), ("q", i_qx))
    ]
    pcc_pos = np.array([ts_case.bus_index(bus) for bus in covered], dtype=int)
    kx = np.zeros((n, npcc))  # pseudo-source incidence
    kx[pcc_pos, np.arange(npcc)] = 1.0

    lb = np.concatenate([ts.lb, np.full(nx - nb, -np.inf)])
    ub = np.concatenate([ts.ub, np.full(nx - nb, np.inf)])
    x0 = np.concatenate([ts.x0, np.zeros(nx - nb)])
    for ds in ds_ids:
        sl = x_slices[ds]
        lb[sl] = bundles[ds].x_min
        ub[sl] = bundles[ds].x_max
        x0[sl] = (lb[sl] + ub[sl]) / 2
    for sl, qm, col in couplings:
        # wide symmetric bounds so the couplings, not these boxes, bind
        bound = 1.5 * _quad_box_bound(qm, lb[sl], ub[sl]) + 0.1
        lb[col], ub[col] = -bound, bound
        x0[col] = -qm.predict(x0[sl])

    # DG generation cost sits on the p components of each x_j
    dg_cols = [
        (x_slices[ds].start + bundles[ds].n_pcc + k, cost)
        for ds in ds_ids
        for k, cost in enumerate(bundles[ds].costs)
    ]

    def objective(x):
        f, grad_ts = ts.objective(x[:nb])
        grad = np.zeros(nx)
        grad[:nb] = grad_ts
        for i, cost in dg_cols:
            p = x[i]
            f += cost.a * p * p + cost.b * p + cost.c
            grad[i] = 2 * cost.a * p + cost.b
        return f, grad

    # equality rows: 2n bus balance, then per PCC its v-link, then couplings
    coup_start = 2 * n + npcc
    m_eq = coup_start + 2 * npcc
    link_rows = np.arange(2 * n, coup_start)
    link_x = np.array([x_slices[ds].start + u for ds, u in pccs], dtype=int)
    link_vm = ts.var_slices["vm"].start + pcc_pos

    def equalities(x):
        g_ts, jac_ts = ts.eq(x[:nb])
        g = np.zeros(m_eq)
        jac = np.zeros((m_eq, nx))
        s_x = kx @ (x[i_px] + 1j * x[i_qx])
        g[:n] = g_ts[:n] - s_x.real
        g[n : 2 * n] = g_ts[n:] - s_x.imag
        jac[: 2 * n, :nb] = jac_ts
        jac[:n, i_px] = -kx
        jac[n : 2 * n, i_qx] = -kx
        g[link_rows] = x[link_x] - x[link_vm]
        jac[link_rows, link_x] = 1.0
        jac[link_rows, link_vm] = -1.0
        for row, (sl, qm, col) in enumerate(couplings, start=coup_start):
            xj = x[sl]
            g[row] = qm.predict(xj) + x[col]
            jac[row, sl] = 2 * qm.a_quad @ xj + qm.b_quad
            jac[row, col] = 1.0
        return g, jac

    def inequalities(x):
        h, jac_ts = ts.nonlinear_ineq(x[:nb])
        jac = np.zeros((len(h), nx))
        jac[:, :nb] = jac_ts
        return h, jac

    def lag_hess(x, sigma, lam, mu):
        hess = np.zeros((nx, nx))
        hess[:nb, :nb] = ts.lag_hess(x[:nb], sigma, lam[: 2 * n], mu)
        for row, (sl, qm, _) in enumerate(couplings, start=coup_start):
            hess[sl, sl] += 2.0 * lam[row] * qm.a_quad
        for i, cost in dg_cols:
            hess[i, i] += sigma * 2 * cost.a
        return hess

    problem = NlpProblem(
        x0=x0,
        lb=lb,
        ub=ub,
        objective=objective,
        lag_hess=lag_hess,
        equalities=equalities,
        inequalities=inequalities,
        var_slices={**ts.var_slices, "px": i_px, "qx": i_qx},
        meta={
            **ts.meta,
            "dg_gens": [],  # the DGs are the x_j blocks, not TS generator columns
            "x_ds_slices": x_slices,
        },
    )

    # per DS its facet rows, then its chart rows
    blocks = []
    for ds in ds_ids:
        bundle = bundles[ds]
        a = np.zeros((bundle.fr.n_h, nx))
        a[:, x_slices[ds]] = bundle.fr.a_fr
        blocks.append((a, bundle.fr.b_fr))
        if charts_enforced and bundle.charts:
            p0 = x_slices[ds].start + bundle.n_pcc
            k = np.arange(bundle.n_dg)
            blocks.append(chart_rows(bundle.charts, p0 + k, p0 + bundle.n_dg + k, nx))
    if blocks:
        append_linear_inequalities(
            problem, np.vstack([a for a, _ in blocks]), np.concatenate([b for _, b in blocks])
        )
    return PpProblem(ts_case=ts_case, bundles=bundles, problem=problem, pcc_order=pcc_order)


def solve_pp(pp: PpProblem, opts: NlpOptions | None = None) -> OpfSolution:
    """Solve the assembled problem; x_ds views give DG dispatch directly."""
    return solve_nlp(pp.problem, opts)


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


def _split_limit_report(case: NetworkCase, rep: LimitReport) -> dict:
    """Attribute limit violations to the TS or the owning DS."""
    owner_of_bus: dict[int, int] = {}
    for ds, own in case.meta.get("ds_buses", {}).items():
        for b in own:
            owner_of_bus[b] = ds
    branch_ds = case.meta.get("branch_ds", [None] * len(case.branches))
    domains: dict = {"ts": {"v": [], "flow": []}}
    for ds in case.meta.get("ds_buses", {}):
        domains[ds] = {"v": [], "flow": []}
    for row in rep.v_violations:
        domains.get(owner_of_bus.get(row[0], "ts"), domains["ts"])["v"].append(row)
    for row in rep.flow_violations:
        owner = branch_ds[row[0]] if row[0] < len(branch_ds) else None
        domains.get(owner if owner is not None else "ts", domains["ts"])["flow"].append(row)
    out = {}
    for dom, parts in domains.items():
        out[dom] = LimitReport(
            ok=not parts["v"] and not parts["flow"],
            v_violations=tuple(parts["v"]),
            flow_violations=tuple(parts["flow"]),
            max_v_err=max((max(lo - v, v - hi) for _, v, lo, hi in parts["v"]), default=0.0),
            max_flow_ratio=max((s / cap for _, s, cap in parts["flow"]), default=0.0),
        )
    return out


def verify_dispatch(
    integrated_case: NetworkCase,
    pp_solution: OpfSolution,
    bundles: dict[int, SurrogateBundle],
    opts: NlpOptions | None = None,
    tol: float = 1e-5,
) -> VerificationReport:
    """Check a PP dispatch against the full network it was meant for.

    Every DG is pinned to its PP setpoint (bounds collapsed to the point) and
    the standard formulation is re-solved over what remains, so transmission
    generators may re-balance the regression error.  Feasibility of the PP
    dispatch means that re-solve succeeds; its objective is the defensible
    cost of the dispatch.
    """
    if not pp_solution.optimal:
        raise ValueError("pp solution is not optimal")
    dg_map = integrated_case.meta.get("dg_map")
    if not dg_map:
        raise ValueError("integrated case lacks DG ownership metadata")

    gens = list(integrated_case.generators)
    for ds, gidx in dg_map.items():
        xj = pp_solution.x_ds[ds]
        r = bundles[ds].n_pcc
        n_dg = bundles[ds].n_dg
        if len(gidx) != n_dg:
            raise ValueError(f"DS {ds}: {len(gidx)} DGs in case, bundle has {n_dg}")
        for k, g in enumerate(gidx):
            p, q = float(xj[r + k]), float(xj[r + n_dg + k])
            gens[g] = replace(gens[g], p_min=p, p_max=p, q_min=q, q_max=q)
    pinned = replace(integrated_case, generators=gens)

    charts = None
    if integrated_case.dg_charts:
        charts = []
        for ds in sorted(dg_map):
            charts.extend(integrated_case.charts_for(ds, dg_map[ds]))

    problem = assemble_standard(pinned)
    if charts:
        problem = assemble_polygon_extension(problem, charts)
    t0 = time.perf_counter()
    sol = solve_nlp(problem, opts)
    dt = time.perf_counter() - t0

    raw = float(pp_solution.objective)
    if not sol.optimal:
        return VerificationReport(
            feasible_true=False,
            violations={},
            verified_cost=float("nan"),
            raw_cost=raw,
            pcc_flow_error=float("nan"),
            message=f"re-solve {sol.status}: {sol.message}",
            solve_time=dt,
            iterations=sol.iterations,
        )

    v = sol.v * np.exp(1j * sol.theta)
    rep = check_limits(pinned, v, tol=tol)
    split = _split_limit_report(pinned, rep)

    # regression error at the verified operating point: re-evaluate each
    # bundle at (re-solved PCC voltages, pinned DG setpoints)
    sf, st = line_flows(pinned, v)
    tab = pinned.branch_table
    branch_ds = np.array([-1 if d is None else d for d in pinned.meta["branch_ds"]])
    base = pinned.base_mva
    err = 0.0
    for ds in dg_map:
        bundle = bundles[ds]
        ts_buses = tuple(t for _, t in pinned.pcc_map[ds])
        xj = pp_solution.x_ds[ds].copy()
        for u, bus in enumerate(ts_buses):
            xj[u] = abs(v[pinned.bus_index(bus)])
        own = tab.closed & (branch_ds == ds)
        for u, bus in enumerate(ts_buses):
            i = pinned.bus_index(bus)
            into_ds = sf[own & (tab.f == i)].sum() + st[own & (tab.t == i)].sum()
            # consumption seen from the TS, per unit
            t_actual_p = into_ds.real / base
            t_actual_q = into_ds.imag / base
            err = max(err, abs(bundle.pcc[u]["p"].predict(xj) - t_actual_p) * base)
            err = max(err, abs(bundle.pcc[u]["q"].predict(xj) - t_actual_q) * base)

    return VerificationReport(
        feasible_true=all(r.ok for r in split.values()),
        violations=split,
        verified_cost=float(sol.objective),
        raw_cost=raw,
        pcc_flow_error=float(err),
        solve_time=dt,
        iterations=sol.iterations,
    )
