"""AC optimal power flow as a smooth NLP, and the interior-point engine.

assemble_standard builds the full nonlinear program for a transmission or
integrated case over x = (theta, vm, p_g, q_g) in per unit: bus power balance
as equalities, squared apparent-power line limits as inequalities, operating
ranges as box bounds, quadratic generation cost as the objective.
solve_nlp is a dense primal-dual interior-point method in the MATPOWER/MIPS
mold, driven by the exact analytic Lagrangian Hessian that every problem
supplies.  It keeps box bounds as vectors (box_bounds) rather than
constraint rows, and holds a column with lb == ub at its bound.

The privacy-preserving formulation (see the ppopf module) is this standard
problem over the transmission case, extended by surrogate blocks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .netmodel import NetworkCase, PQChart, branch_admittances
from .powerflow import dSbus_dV


# ---------------------------------------------------------------------------
# Branch flow derivatives (polar voltage coordinates)
# ---------------------------------------------------------------------------


class BranchSet:
    """Admittance and incidence rows of the rated, closed branches of a case.

    Flow at one end is S = diag(C V) conj(Yb V) with C the end's incidence;
    both ends of every rated branch contribute one squared-magnitude
    constraint row.
    """

    def __init__(self, case: NetworkCase):
        yf, yt, fidx, tidx = branch_admittances(case)
        rated = case.branch_table.rated
        self.branch_index = np.flatnonzero(rated)
        self.n_rows = 2 * len(self.branch_index)
        self.yb = np.vstack([yf[rated], yt[rated]])  # from-end rows, then to-end
        self.cidx = np.concatenate([fidx[rated], tidx[rated]])  # metered bus per row
        self.c_rows = np.zeros_like(self.yb)  # incidence of the metered bus
        self.c_rows[np.arange(self.n_rows), self.cidx] = 1.0
        lim = [(case.branches[i].s_max / case.base_mva) ** 2 for i in self.branch_index]
        self.limit_sq = np.array(lim + lim, dtype=float)

    def flows(self, v: np.ndarray) -> np.ndarray:
        return v[self.cidx] * np.conj(self.yb @ v)

    def flow_jacobian(self, v: np.ndarray):
        """dS/dVa and dS/dVm for every constraint row (complex, rows x n_bus)."""
        vnorm = v / np.abs(v)
        ib = self.yb @ v
        vc = v[self.cidx]
        ds_dva = 1j * (
            np.conj(ib)[:, None] * self.c_rows * v[None, :]
            - vc[:, None] * np.conj(self.yb * v[None, :])
        )
        ds_dvm = vc[:, None] * np.conj(self.yb * vnorm[None, :]) + np.conj(ib)[
            :, None
        ] * self.c_rows * vnorm[None, :]
        return ds_dva, ds_dvm

    def sq_constraints(self, v: np.ndarray):
        """h = |S|^2 - limit^2 and its Jacobian wrt (theta, vm)."""
        s = self.flows(v)
        h = s.real**2 + s.imag**2 - self.limit_sq
        ds_dva, ds_dvm = self.flow_jacobian(v)
        da = 2 * (s.real[:, None] * ds_dva.real + s.imag[:, None] * ds_dva.imag)
        dm = 2 * (s.real[:, None] * ds_dvm.real + s.imag[:, None] * ds_dvm.imag)
        return h, da, dm

    def sq_hessian(self, v: np.ndarray, mu: np.ndarray) -> np.ndarray:
        """Hessian of mu . |S|^2 wrt (theta, vm), real (2n x 2n)."""
        s = self.flows(v)
        ds_dva, ds_dvm = self.flow_jacobian(v)
        lam = np.conj(s) * mu
        # second derivative of lam . S, split into the four polar blocks
        a = self.yb.conj().T @ (lam[:, None] * self.c_rows)
        dv = np.conj(v)
        b = dv[:, None] * a * v[None, :]
        d = np.diag((a @ v) * dv)
        e = np.diag((a.T @ dv) * v)
        f_ = b + b.T
        g = np.diag(1.0 / np.abs(v))
        saa = f_ - d - e
        sva = 1j * g @ (b - b.T - d + e)
        sav = sva.T
        svv = g @ f_ @ g
        haa = 2 * np.real(saa + ds_dva.T @ (mu[:, None] * np.conj(ds_dva)))
        hva = 2 * np.real(sva + ds_dvm.T @ (mu[:, None] * np.conj(ds_dva)))
        hav = 2 * np.real(sav + ds_dva.T @ (mu[:, None] * np.conj(ds_dvm)))
        hvv = 2 * np.real(svv + ds_dvm.T @ (mu[:, None] * np.conj(ds_dvm)))
        return np.block([[haa, hav], [hva, hvv]])


def bus_injection_hessian(
    ybus: np.ndarray, v: np.ndarray, lam_p: np.ndarray, lam_q: np.ndarray
) -> np.ndarray:
    """Hessian of lam_p . Re(S(V)) + lam_q . Im(S(V)) wrt (theta, vm)."""
    lam = lam_p - 1j * lam_q  # Re(lam^T S) reproduces both contractions
    ibus = ybus @ v
    a = np.diag(lam * v)
    b = ybus @ np.diag(v)
    c = a @ np.conj(b)
    d = ybus.conj().T @ np.diag(v)
    e = np.conj(np.diag(v)) @ (d @ np.diag(lam) - np.diag(d @ lam))
    f_ = c - a @ np.diag(np.conj(ibus))
    g = np.diag(1.0 / np.abs(v))
    gaa = e + f_
    gva = 1j * g @ (e - f_)
    gav = gva.T
    gvv = g @ (c + c.T) @ g
    return np.real(np.block([[gaa, gav], [gva, gvv]]))


# ---------------------------------------------------------------------------
# NLP container
# ---------------------------------------------------------------------------


@dataclass
class NlpProblem:
    """min f(x) s.t. g(x)=0, h(x)<=0, lb<=x<=ub, all callbacks smooth.

    objective(x) -> (f, grad); equalities/inequalities(x) -> (values, dense
    Jacobian); lag_hess(x, sigma, lam, mu) -> sigma*d2f + d2g.lam + d2h.mu.
    var_slices names the blocks of x for unpacking and reporting.
    """

    x0: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    objective: Callable
    lag_hess: Callable
    equalities: Callable | None = None
    inequalities: Callable | None = None
    var_slices: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.x0)

    def eq(self, x):
        if self.equalities is None:
            return np.zeros(0), np.zeros((0, self.n))
        return self.equalities(x)

    def ineq(self, x):
        if self.inequalities is None:
            return np.zeros(0), np.zeros((0, self.n))
        return self.inequalities(x)


def append_linear_inequalities(problem: NlpProblem, a_new: np.ndarray, b_new: np.ndarray):
    """Extend problem with rows a_new @ x <= b_new (in place, returns problem)."""
    old = problem.inequalities

    def inequalities(x):
        hv = a_new @ x - b_new
        jv = a_new
        if old is None:
            return hv, jv.copy()
        h0, j0 = old(x)
        return np.concatenate([h0, hv]), np.vstack([j0, jv])

    old_hess = problem.lag_hess

    # linear rows contribute no curvature
    def lag_hess(x, sigma, lam, mu):
        return old_hess(x, sigma, lam, mu[: len(mu) - len(b_new)])

    problem.lag_hess = lag_hess
    problem.inequalities = inequalities
    return problem


# ---------------------------------------------------------------------------
# Standard AC-OPF assembly
# ---------------------------------------------------------------------------


def assemble_standard(case: NetworkCase) -> NlpProblem:
    """Full AC-OPF over x = (theta, vm, p_g, q_g), per unit.

    Equalities: active/reactive balance at every bus, plus the angle
    reference (slack theta pinned through an equal-bound box).  Inequalities:
    squared apparent-power limits at both ends of every rated branch.
    """
    n = case.n_bus
    ng = case.n_gen
    if ng == 0:
        raise ValueError("case has no generators to dispatch")
    base = case.base_mva
    ybus = case.ybus
    branches = BranchSet(case)
    kg = case.gen_incidence()
    sd = np.array([complex(b.p_d, b.q_d) for b in case.buses]) / base

    i_th = slice(0, n)
    i_vm = slice(n, 2 * n)
    i_pg = slice(2 * n, 2 * n + ng)
    i_qg = slice(2 * n + ng, 2 * n + 2 * ng)
    nx = 2 * n + 2 * ng

    lb = np.empty(nx)
    ub = np.empty(nx)
    for i, b in enumerate(case.buses):
        lb[i_th][i], ub[i_th][i] = b.theta_min, b.theta_max
        lb[i_vm][i], ub[i_vm][i] = b.v_min, b.v_max
    slack = case.slack_buses()
    ref = case.bus_index(slack[0]) if slack else 0
    lb[ref], ub[ref] = 0.0, 0.0
    for g, gen in enumerate(case.generators):
        lb[i_pg][g], ub[i_pg][g] = gen.p_min / base, gen.p_max / base
        lb[i_qg][g], ub[i_qg][g] = gen.q_min / base, gen.q_max / base

    x0 = np.zeros(nx)
    x0[i_vm] = np.clip(1.0, lb[i_vm], ub[i_vm])
    x0[i_pg] = (lb[i_pg] + ub[i_pg]) / 2
    x0[i_qg] = (lb[i_qg] + ub[i_qg]) / 2

    # cost in $/h with p in p.u.: a' = a b^2, b' = b_coef * b
    ca = np.array([g.cost.a for g in case.generators]) * base**2
    cb = np.array([g.cost.b for g in case.generators]) * base
    cc = np.array([g.cost.c for g in case.generators])

    def objective(x):
        pg = x[i_pg]
        f = float(np.sum(ca * pg**2 + cb * pg + cc))
        grad = np.zeros(nx)
        grad[i_pg] = 2 * ca * pg + cb
        return f, grad

    def voltages(x):
        return x[i_vm] * np.exp(1j * x[i_th])

    def equalities(x):
        v = voltages(x)
        s = v * np.conj(ybus @ v)
        mis = s + sd - kg @ (x[i_pg] + 1j * x[i_qg])
        ds_dva, ds_dvm = dSbus_dV(ybus, v)
        jac = np.zeros((2 * n, nx))
        jac[:n, i_th] = ds_dva.real
        jac[:n, i_vm] = ds_dvm.real
        jac[:n, i_pg] = -kg
        jac[n:, i_th] = ds_dva.imag
        jac[n:, i_vm] = ds_dvm.imag
        jac[n:, i_qg] = -kg
        return np.concatenate([mis.real, mis.imag]), jac

    def inequalities(x):
        if branches.n_rows == 0:
            return np.zeros(0), np.zeros((0, nx))
        h, da, dm = branches.sq_constraints(voltages(x))
        jac = np.zeros((branches.n_rows, nx))
        jac[:, i_th] = da
        jac[:, i_vm] = dm
        return h, jac

    def lag_hess(x, sigma, lam, mu):
        v = voltages(x)
        hess = np.zeros((nx, nx))
        hb = bus_injection_hessian(ybus, v, lam[:n], lam[n:])
        if branches.n_rows:
            hb = hb + branches.sq_hessian(v, mu[: branches.n_rows])
        hess[: 2 * n, : 2 * n] = hb
        dpg = np.zeros(nx)
        dpg[i_pg] = sigma * 2 * ca
        hess[np.diag_indices(nx)] += dpg
        return hess

    meta = {"case": case.name, "n_bus": n, "n_gen": ng, "base_mva": base}
    if "dg_map" in case.meta:
        meta["dg_gens"] = [g for ds in sorted(case.meta["dg_map"]) for g in case.meta["dg_map"][ds]]
    else:
        meta["dg_gens"] = list(range(ng))

    return NlpProblem(
        x0=x0,
        lb=lb,
        ub=ub,
        objective=objective,
        equalities=equalities,
        inequalities=inequalities,
        lag_hess=lag_hess,
        var_slices={"theta": i_th, "vm": i_vm, "pg": i_pg, "qg": i_qg},
        meta=meta,
    )


def assemble_polygon_extension(problem: NlpProblem, charts: list[PQChart]) -> NlpProblem:
    """Add per-DG capability-polygon facet rows to an assembled OPF.

    One linear row per facet: a_pq . (p_k, q_k) <= b_pq, with the chart in MW
    and the variables in per unit.
    """
    dg_gens = problem.meta.get("dg_gens", [])
    if len(charts) != len(dg_gens):
        raise ValueError(f"expected {len(dg_gens)} charts, got {len(charts)}")
    if not charts:
        return problem
    p_cols = [problem.var_slices["pg"].start + g for g in dg_gens]
    q_cols = [problem.var_slices["qg"].start + g for g in dg_gens]
    a, b = chart_rows(charts, p_cols, q_cols, problem.n, scale=problem.meta["base_mva"])
    return append_linear_inequalities(problem, a, b)


def chart_rows(charts: list[PQChart], p_cols, q_cols, n: int, scale: float = 1.0):
    """Facet rows a_pq . (x[p_col], x[q_col]) * scale <= b_pq, chart by chart.

    Chart k constrains columns (p_cols[k], q_cols[k]) of an n-column problem;
    scale converts the variables to the chart's MW/MVAr.
    """
    a = np.zeros((sum(len(c.b_pq) for c in charts), n))
    row = 0
    for chart, ip, iq in zip(charts, p_cols, q_cols):
        rows = slice(row, row + len(chart.b_pq))
        a[rows, ip] = chart.a_pq[:, 0] * scale
        a[rows, iq] = chart.a_pq[:, 1] * scale
        row = rows.stop
    return a, np.concatenate([c.b_pq for c in charts])


# ---------------------------------------------------------------------------
# Primal-dual interior point solver
# ---------------------------------------------------------------------------


@dataclass
class NlpOptions:
    feastol: float = 1e-6
    gradtol: float = 1e-6
    comptol: float = 1e-6
    costtol: float = 1e-6
    max_iter: int = 200
    sigma: float = 0.2  # barrier reduction factor
    xi: float = 0.99995  # fraction-to-boundary


@dataclass
class OpfSolution:
    x: np.ndarray
    objective: float
    status: str  # optimal | iteration_limit | infeasible
    iterations: int
    solve_time: float
    constraint_violation: float
    lam: np.ndarray  # equality multipliers (user rows)
    mu: np.ndarray  # inequality multipliers (user rows)
    mu_box: np.ndarray  # bound multipliers, in box_bounds order
    message: str = ""
    # populated when the problem carries OPF variable slices
    theta: np.ndarray | None = None
    v: np.ndarray | None = None
    p_g: np.ndarray | None = None
    q_g: np.ndarray | None = None
    x_ds: dict | None = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def box_bounds(problem: NlpProblem):
    """The box of a problem as (pinned mask, column, sign, cap) vectors.

    A column with lb == ub is pinned to its bound.  Every finite bound of
    another column is one row sign * (x[column] - cap) <= 0: first the upper
    bounds (sign +1) in column order, then the lower bounds (sign -1).
    """
    lb, ub = problem.lb, problem.ub
    if np.any(lb > ub):
        raise ValueError("empty box: lb > ub")
    pinned = lb == ub
    hi = np.flatnonzero(np.isfinite(ub) & ~pinned)
    lo = np.flatnonzero(np.isfinite(lb) & ~pinned)
    col = np.concatenate([hi, lo])
    sign = np.concatenate([np.ones(len(hi)), -np.ones(len(lo))])
    return pinned, col, sign, np.concatenate([ub[hi], lb[lo]])


# iterates may transiently overflow on diverging problems before the
# finiteness check below declares them infeasible; keep numpy quiet about it
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve_nlp(problem: NlpProblem, opts: NlpOptions | None = None) -> OpfSolution:
    """Primal-dual interior-point solve of an NlpProblem.

    Newton steps on the perturbed KKT system in reduced form, fraction-to-
    boundary step clipping, multiplicative barrier reduction.  Box bounds
    stay vectors: a finite bound is an inequality row with one +-1 entry,
    so its terms in the KKT system are a diagonal add and an index, and a
    pinned column is held at its bound outside the Newton system.  Bound
    slacks and multipliers count in the convergence tests like those of the
    user rows; a pinned column's stationarity does not, as its multiplier is
    free.  Failure to reduce the residuals within the iteration cap
    yields iteration_limit, or infeasible when the final violation is far
    above tolerance.
    """
    opts = opts or NlpOptions()
    t0 = time.perf_counter()
    pinned, col, sign, cap = box_bounds(problem)
    x = problem.x0.astype(float).copy()
    x[pinned] = problem.lb[pinned]
    n = len(x)
    fc = np.flatnonzero(~pinned)  # the columns of the Newton system
    nf = len(fc)

    def evaluate(x):
        g, jg = problem.eq(x)
        h, jh = problem.ineq(x)
        return g, jg, np.concatenate([h, sign * (x[col] - cap)]), jh

    def jh_t(jh, w):
        """Jh^T w over the user rows and the bound rows."""
        return jh.T @ w[:nh] + np.bincount(col, weights=sign * w[nh:], minlength=n)

    f, df = problem.objective(x)
    g, jg, h, jh = evaluate(x)
    neq, niq, nh = len(g), len(h), len(jh)
    lam = np.zeros(neq)
    z = np.ones(niq)
    mu = np.ones(niq)
    k = h < -1.0
    z[k] = -h[k]
    gamma = 1.0
    k = gamma / z > 1.0
    mu[k] = gamma / z[k]

    def residuals(f, df, g, h, jg, jh, lam, mu, x, z):
        lx = df + jg.T @ lam + jh_t(jh, mu)
        maxh = np.max(h) if niq else 0.0
        maxg = np.max(np.abs(g)) if neq else 0.0
        normx = max(np.max(np.abs(x)), 1.0)
        normz = np.max(np.abs(z)) if niq else 0.0
        feascond = max(maxg, maxh) / (1 + max(normx, normz))
        gradcond = np.max(np.abs(lx[fc]), initial=0.0) / (
            1 + max(np.max(np.abs(lam)) if neq else 0.0, np.max(np.abs(mu)) if niq else 0.0)
        )
        compcond = (z @ mu) / (1 + np.max(np.abs(x))) / max(niq, 1) if niq else 0.0
        return lx, feascond, gradcond, compcond

    lx, feascond, gradcond, compcond = residuals(f, df, g, h, jg, jh, lam, mu, x, z)
    f_prev = f
    costcond = np.inf
    converged = feascond < opts.feastol and gradcond < opts.gradtol and compcond < opts.comptol
    it = 0
    message = ""

    while not converged and it < opts.max_iter:
        it += 1
        hess = problem.lag_hess(x, 1.0, lam, mu[:nh])
        zinv = 1.0 / z
        m = hess + (jh.T * (mu[:nh] * zinv[:nh])) @ jh
        m[np.diag_indices(n)] += np.bincount(col, weights=mu[nh:] * zinv[nh:], minlength=n)
        nvec = lx + jh_t(jh, zinv * (gamma + mu * h))
        m = m[np.ix_(fc, fc)]
        jg_f = jg[:, fc]

        dx = np.zeros(n)
        dlam = None
        reg = 0.0
        for attempt in range(7):
            kkt = np.zeros((nf + neq, nf + neq))
            kkt[:nf, :nf] = m + reg * np.eye(nf)
            if neq:
                kkt[:nf, nf:] = jg_f.T
                kkt[nf:, :nf] = jg_f
                kkt[nf:, nf:] = -reg * np.eye(neq)
            rhs = np.concatenate([-nvec[fc], -g])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                reg = max(10 * reg, 1e-10)
                continue
            if not np.all(np.isfinite(sol)):
                reg = max(10 * reg, 1e-10)
                continue
            dx[fc], dlam = sol[:nf], sol[nf:]
            break
        if dlam is None:
            message = "KKT system singular beyond regularization"
            break

        if niq:
            dz = -h - z - np.concatenate([jh @ dx, sign * dx[col]])
            dmu = -mu + zinv * (gamma - mu * dz)
            kz = dz < 0
            alphap = min(1.0, opts.xi * np.min(z[kz] / -dz[kz])) if np.any(kz) else 1.0
            km = dmu < 0
            alphad = min(1.0, opts.xi * np.min(mu[km] / -dmu[km])) if np.any(km) else 1.0
        else:
            dz = dmu = None
            alphap = alphad = 1.0

        x = x + alphap * dx
        if niq:
            z = z + alphap * dz
            mu = mu + alphad * dmu
        lam = lam + alphad * dlam

        f, df = problem.objective(x)
        g, jg, h, jh = evaluate(x)
        if niq:
            gamma = opts.sigma * (z @ mu) / niq
        lx, feascond, gradcond, compcond = residuals(f, df, g, h, jg, jh, lam, mu, x, z)
        costcond = abs(f - f_prev) / (1 + abs(f_prev))
        f_prev = f
        if not np.isfinite(feascond) or not np.isfinite(f):
            message = "iterates diverged"
            break
        converged = (
            feascond < opts.feastol
            and gradcond < opts.gradtol
            and compcond < opts.comptol
            and costcond < opts.costtol
        )

    elapsed = time.perf_counter() - t0
    violation = float(
        max(
            np.max(np.abs(g)) if neq else 0.0,
            np.max(h) if niq else 0.0,
            0.0,
        )
    )
    if converged:
        status = "optimal"
    elif violation > 100 * opts.feastol or message:
        status = "infeasible"
    else:
        status = "iteration_limit"

    sol = OpfSolution(
        x=x,
        objective=f,
        status=status,
        iterations=it,
        solve_time=elapsed,
        constraint_violation=violation,
        lam=lam,
        mu=mu[:nh],
        mu_box=mu[nh:],
        message=message,
    )
    _attach_opf_views(problem, sol)
    return sol


def _attach_opf_views(problem: NlpProblem, sol: OpfSolution) -> None:
    vs = problem.var_slices
    base = problem.meta.get("base_mva")
    if "theta" in vs:
        sol.theta = sol.x[vs["theta"]].copy()
    if "vm" in vs:
        sol.v = sol.x[vs["vm"]].copy()
    if "pg" in vs and base:
        sol.p_g = sol.x[vs["pg"]] * base
        sol.q_g = sol.x[vs["qg"]] * base
    ds_slices = problem.meta.get("x_ds_slices")
    if ds_slices:
        sol.x_ds = {ds: sol.x[sl].copy() for ds, sl in ds_slices.items()}


def solve_standard(case: NetworkCase, opts: NlpOptions | None = None, charts=None) -> OpfSolution:
    """Assemble and solve the standard AC-OPF, optionally with polygon rows."""
    problem = assemble_standard(case)
    if charts:
        problem = assemble_polygon_extension(problem, charts)
    return solve_nlp(problem, opts)


@dataclass
class KktReport:
    stationarity: float
    primal_eq: float
    primal_ineq: float
    complementarity: float
    dual_sign: float  # most negative inequality multiplier (>= -tol at a KKT point)

    def ok(self, tol: float = 1e-6) -> bool:
        return (
            self.stationarity <= tol
            and self.primal_eq <= tol
            and self.primal_ineq <= tol
            and self.complementarity <= tol
            and self.dual_sign >= -tol
        )


def kkt_report(problem: NlpProblem, sol: OpfSolution) -> KktReport:
    """First-order optimality residuals of a solution, from analytic derivatives.

    The bound rows are built from box_bounds exactly as the solver saw them
    and weighted by sol.mu_box, so an optimal solve reports residuals at the
    solver's own tolerance.  A pinned column carries a free multiplier, so
    stationarity skips it, and its distance from the bound counts as an
    equality residual.
    """
    pinned, col, sign, cap = box_bounds(problem)
    x = sol.x
    _, df = problem.objective(x)
    g, jg = problem.eq(x)
    h, jh = problem.ineq(x)
    h = np.concatenate([h, sign * (x[col] - cap)])
    g = np.concatenate([g, x[pinned] - problem.lb[pinned]])
    mu = np.concatenate([sol.mu, sol.mu_box])
    lx = df + jg.T @ sol.lam + jh.T @ sol.mu + np.bincount(col, sign * sol.mu_box, len(x))
    # scaled as in the solver's convergence test
    comp = np.max(np.abs(mu * h)) / (1 + np.max(np.abs(x))) if len(h) else 0.0
    return KktReport(
        stationarity=float(np.max(np.abs(lx[~pinned]), initial=0.0)),
        primal_eq=float(np.max(np.abs(g))) if len(g) else 0.0,
        primal_ineq=float(max(np.max(h), 0.0)) if len(h) else 0.0,
        complementarity=float(comp),
        dual_sign=float(np.min(mu)) if len(mu) else 0.0,
    )
