"""AC optimal power flow as a smooth NLP, and the interior-point engine.

assemble_standard builds the full nonlinear program for a transmission or
integrated case over x = (theta, vm, p_g, q_g) in per unit: bus power balance
as equalities, squared apparent-power line limits as inequalities, operating
ranges as box bounds, quadratic generation cost as the objective.  Every
derivative is returned as values on a sparsity pattern declared at
assembly (NlpProblem), as MATPOWER's MIPS callbacks return sparse
matrices.  The patterns follow the network: a branch-end flow row touches
two buses, so its Jacobian row has two entries per coordinate and its
Hessian is a 4x4 block; the bus injections, their Jacobian and their
Hessian live on the pattern of Ybus, and the flow blocks are summed onto
it with np.bincount, so the callbacks do work in proportion to the
branches.
solve_nlp is a primal-dual interior-point method in the MATPOWER/MIPS
mold, driven by the exact analytic Lagrangian Hessian that every problem
supplies.  It keeps box bounds as vectors (box_bounds) rather than
constraint rows, holds a column with lb == ub at its bound, and takes its
products with the derivative values on their patterns.  Its Newton system
is formed from those values and solved by owner blocks (KktBlocks): on an
integrated case, one dense block per DS, bordered by the TS, whose Schur
complement joins them; the coupled OPF has one block per DS's DGs.

The privacy-preserving formulation (see the ppopf module) is this standard
problem over the transmission case, extended by surrogate blocks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .netmodel import NetworkCase, PQChart


# ---------------------------------------------------------------------------
# Branch flow derivatives (polar voltage coordinates)
# ---------------------------------------------------------------------------


class BranchSet:
    """The rated, closed branch ends of a case, as (bus, admittance) pairs.

    Row r meters bus i = bus[r, 0] and reaches bus k = bus[r, 1]; the current
    leaving i into the branch is y[r, 0] V_i + y[r, 1] V_k, so the flow is
    S = V_i conj(y[r, 0] V_i + y[r, 1] V_k).  Both ends of every rated
    branch contribute one squared-magnitude constraint row: the from-end
    rows, then the to-end rows.  cols[r] holds the (theta_i, theta_k, vm_i,
    vm_k) positions of row r in (theta, vm).
    """

    def __init__(self, case: NetworkCase):
        tab = case.branch_table
        rated = tab.rated
        f, t = tab.f[rated], tab.t[rated]
        self.n_rows = 2 * len(f)
        self.n_bus = case.n_bus
        self.bus = np.stack([np.concatenate([f, t]), np.concatenate([t, f])], axis=1)
        self.y = np.stack(
            [
                np.concatenate([tab.yff[rated], tab.ytt[rated]]),
                np.concatenate([tab.yft[rated], tab.ytf[rated]]),
            ],
            axis=1,
        )
        lim = (tab.s_max[rated] / case.base_mva) ** 2
        self.limit_sq = np.concatenate([lim, lim])
        self.cols = np.concatenate([self.bus, self.n_bus + self.bus], axis=1)

    def _terms(self, v: np.ndarray):
        """Per row: V_i, S, and the far-end term P = V_i conj(y[r, 1] V_k)."""
        vi, vk = v[self.bus[:, 0]], v[self.bus[:, 1]]
        s = vi * np.conj(self.y[:, 0] * vi + self.y[:, 1] * vk)
        return vi, vk, s, vi * np.conj(self.y[:, 1] * vk)

    def flow_jacobian(self, v: np.ndarray):
        """dS/dVa and dS/dVm of every row at its buses (i, k): complex (rows, 2).

        With P = V_i conj(y[r, 1] V_k), dS/dtheta = (jP, -jP) and
        dS/dvm = (2 conj(y[r, 0]) |V_i| + P / |V_i|, P / |V_k|).
        """
        vi, vk, _, p = self._terms(v)
        mi = np.abs(vi)
        ds_dva = np.stack([1j * p, -1j * p], axis=1)
        ds_dvm = np.stack([2 * np.conj(self.y[:, 0]) * mi + p / mi, p / np.abs(vk)], axis=1)
        return ds_dva, ds_dvm

    def sq_constraints(self, v: np.ndarray):
        """h = |S|^2 - limit^2 and its Jacobian values at cols: (rows, 4)."""
        s = self._terms(v)[2]
        h = s.real**2 + s.imag**2 - self.limit_sq
        ds = np.concatenate(self.flow_jacobian(v), axis=1)
        return h, 2 * np.real(np.conj(s)[:, None] * ds)

    def sq_hessian(self, v: np.ndarray, mu: np.ndarray) -> np.ndarray:
        """Per row, the Hessian of mu_r |S_r|^2 over its columns cols[r]: (rows, 4, 4).

        2 mu_r Re(conj(S) d2S + dS dS^H) over (theta_i, theta_k, vm_i, vm_k);
        the caller sums the blocks into place.
        """
        vi, vk, s, p = self._terms(v)
        mi, mk = np.abs(vi), np.abs(vk)
        d1 = np.concatenate(self.flow_jacobian(v), axis=1)
        d2 = np.zeros((self.n_rows, 4, 4), dtype=complex)
        d2[:, :2, :2] = p[:, None, None] * np.array([[-1.0, 1.0], [1.0, -1.0]])
        tv = np.stack([1j * p / mi, 1j * p / mk], axis=1)  # d2S / dtheta_i dvm_(i, k)
        d2[:, 0, 2:] = tv
        d2[:, 1, 2:] = -tv
        d2[:, 2:, :2] = np.swapaxes(d2[:, :2, 2:], 1, 2)
        d2[:, 2, 2] = 2 * np.conj(self.y[:, 0])
        d2[:, 2, 3] = d2[:, 3, 2] = p / (mi * mk)
        blk = np.real(np.conj(s)[:, None, None] * d2 + d1[:, :, None] * np.conj(d1[:, None, :]))
        return (2 * mu)[:, None, None] * blk


# ---------------------------------------------------------------------------
# NLP container
# ---------------------------------------------------------------------------


def _no_entries():
    return np.zeros(0, dtype=int), np.zeros(0, dtype=int)


@dataclass
class NlpProblem:
    """min f(x) s.t. g(x)=0, h(x)<=0, A x <= b_lin, lb<=x<=ub.

    Every derivative other than the gradient is a vector of values on a
    pattern fixed at assembly: a COO pair (rows, cols) of index arrays, in
    which an entry may repeat and repeats sum.  objective(x) -> (f, grad);
    equalities(x) and inequalities(x) -> (row values, Jacobian values in
    the order of eq_at and ineq_at); lag_hess(x, sigma, lam, mu) -> the
    values in hess_at's order of sigma*d2f + d2g.lam + d2h.mu, with mu over
    the inequalities rows (the linear rows, which may follow in mu, carry
    no curvature).  hess_at lists both triangles.  The linear rows A x <=
    b_lin are constant data on a pattern of their own: lin_at, its rows
    numbered from 0, and lin_val.  var_slices names the blocks of x for
    unpacking and reporting.

    col_owner and eq_owner partition the columns and the equality rows: -1
    is the border, and any other owner is a block whose rows and Hessian
    entries meet no other owner's columns, only the border's.  None puts
    everything in the border, as one block.
    """

    x0: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    objective: Callable
    lag_hess: Callable
    hess_at: tuple
    equalities: Callable | None = None
    eq_at: tuple = field(default_factory=_no_entries)
    inequalities: Callable | None = None
    ineq_at: tuple = field(default_factory=_no_entries)
    var_slices: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    lin_at: tuple = field(default_factory=_no_entries)
    lin_val: np.ndarray = field(default_factory=lambda: np.zeros(0))
    b_lin: np.ndarray = field(default_factory=lambda: np.zeros(0))
    col_owner: np.ndarray | None = None
    eq_owner: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.x0)

    def eq(self, x):
        if self.equalities is None:
            return np.zeros(0), np.zeros(0)
        return self.equalities(x)

    def nonlinear_ineq(self, x):
        """The inequalities rows alone, without the linear ones."""
        if self.inequalities is None:
            return np.zeros(0), np.zeros(0)
        return self.inequalities(x)

    def ineq(self, x):
        """Every inequality row, the nonlinear ones then the linear ones, and
        the Jacobian values of both: ineq_at's, then lin_val."""
        h, jh = self.nonlinear_ineq(x)
        rows, cols = self.lin_at
        a_x = np.bincount(rows, self.lin_val * x[cols], len(self.b_lin))
        return np.concatenate([h, a_x - self.b_lin]), np.concatenate([jh, self.lin_val])


def append_linear_inequalities(problem: NlpProblem, at: tuple, val: np.ndarray, b: np.ndarray):
    """Extend problem with rows A x <= b, A given by values val on the pattern
    at, its rows numbered from 0 (in place, returns problem)."""
    rows, cols = problem.lin_at
    problem.lin_at = (
        np.concatenate([rows, len(problem.b_lin) + np.asarray(at[0], dtype=int)]),
        np.concatenate([cols, np.asarray(at[1], dtype=int)]),
    )
    problem.lin_val = np.concatenate([problem.lin_val, val])
    problem.b_lin = np.concatenate([problem.b_lin, b])
    return problem


# ---------------------------------------------------------------------------
# Standard AC-OPF assembly
# ---------------------------------------------------------------------------


def assemble_standard(case: NetworkCase) -> NlpProblem:
    """Full AC-OPF over x = (theta, vm, p_g, q_g), per unit.

    Equalities: active/reactive balance at every bus, plus the angle
    reference (slack theta pinned through an equal-bound box).  Inequalities:
    squared apparent-power limits at both ends of every rated branch.  The
    gradient is sized by len(x), and the patterns name only this block's
    columns, so a caller may append columns after it.
    An integrated case is partitioned by DS (``meta["ds_buses"]`` and
    ``["dg_map"]``): a DS owns the theta/vm columns and balance rows of its
    own buses and the p/q columns of its DGs; the TS, its PCC buses
    included, is the border.
    """
    n = case.n_bus
    ng = case.n_gen
    if ng == 0:
        raise ValueError("case has no generators to dispatch")
    base = case.base_mva
    ybus = case.ybus
    branches = BranchSet(case)
    gbus = np.array([case.bus_index(g.bus) for g in case.generators])
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

    # The pattern of Ybus, made symmetric, with the whole diagonal and every
    # rated branch's bus pair: entry k is (pr[k], pc[k]) in row-major order;
    # the pattern is symmetric, so column-major order lists the transposes,
    # and entry tr[k] is (pc[k], pr[k]); bus i's diagonal is entry dg[i].
    mask = (ybus != 0) | (ybus.T != 0) | np.eye(n, dtype=bool)
    mask[branches.bus[:, 0], branches.bus[:, 1]] = True
    mask[branches.bus[:, 1], branches.bus[:, 0]] = True
    pr, pc = np.nonzero(mask)
    nnz = len(pr)
    tr = np.lexsort((pr, pc))
    dg = np.flatnonzero(pr == pc)
    y_nz = ybus[pr, pc]
    # (row, column) of every Jacobian entry: the four blocks of dS/dV on the
    # pattern, then -1 at each generator's bus and p/q column
    gens = np.arange(ng)
    jac_at = (
        np.concatenate([pr, pr, n + pr, n + pr, gbus, n + gbus]),
        np.concatenate([pc, n + pc, pc, n + pc, 2 * n + gens, 2 * n + ng + gens]),
    )
    minus_one = -np.ones(2 * ng)
    # (row, column) of every Hessian entry: the (theta, theta), (theta, vm),
    # (vm, theta) and (vm, vm) blocks on the pattern, then the p_g diagonal;
    # and the slot among those of each entry of a branch row's 4x4 block
    hess_at = (
        np.concatenate([pr, pr, n + pr, n + pr, 2 * n + gens]),
        np.concatenate([pc, n + pc, pc, n + pc, 2 * n + gens]),
    )
    ends = branches.bus[:, [0, 1, 0, 1]]  # the bus of each of a row's 4 columns
    kind = np.array([0, 0, 1, 1])  # theta or vm
    entry = np.searchsorted(pr * n + pc, ends[:, :, None] * n + ends[:, None, :])
    br_slot = ((2 * kind[:, None] + kind) * nnz + entry).ravel()

    def objective(x):
        pg = x[i_pg]
        f = float(np.sum(ca * pg**2 + cb * pg + cc))
        grad = np.zeros(len(x))
        grad[i_pg] = 2 * ca * pg + cb
        return f, grad

    def voltages(x):
        return x[i_vm] * np.exp(1j * x[i_th])

    def injections(v):
        """a_k = V_i conj(Y_ik V_k) on the pattern, and S = V conj(Ybus V), its row sums."""
        a = v[pr] * np.conj(y_nz * v[pc])
        return a, np.bincount(pr, a.real, n) + 1j * np.bincount(pr, a.imag, n)

    def equalities(x):
        v = voltages(x)
        a, s = injections(v)
        vm = np.abs(v)
        mis = s + sd - np.bincount(gbus, x[i_pg], n) - 1j * np.bincount(gbus, x[i_qg], n)
        # MATPOWER's dSbus_dV with A = diag(V) conj(Ybus) diag(conj V):
        # dS/dVa = j (diag(S) - A), dS/dVm = A diag(1/|V|) + diag(S/|V|)
        d_va = -1j * a
        d_va[dg] += 1j * s
        d_vm = a / vm[pc]
        d_vm[dg] += s / vm
        jac = np.concatenate([d_va.real, d_vm.real, d_va.imag, d_vm.imag, minus_one])
        return np.concatenate([mis.real, mis.imag]), jac

    def inequalities(x):
        h, jac = branches.sq_constraints(voltages(x))
        return h, jac.ravel()

    def lag_hess(x, sigma, lam, mu):
        # MATPOWER's d2Sbus_dV2 on the pattern, contracted with lam_p - j lam_q
        # (its real part gives the P and the Q rows at once): C = diag(lam V)
        # conj(Ybus diag V), F = C - diag(lam S), and E = diag(conj V)
        # (D diag(lam) - diag(D lam)) with D = Ybus^H diag(V)
        v = voltages(x)
        a, s = injections(v)
        vm = np.abs(v)
        lc = lam[:n] - 1j * lam[n:]
        c = lc[pr] * a
        e = lc[pc] * a[tr]
        e[dg] -= np.bincount(pr, e.real, n) + 1j * np.bincount(pr, e.imag, n)
        f = c.copy()
        f[dg] -= lc * s
        h_va = -(e - f).imag / vm[pr]
        vals = np.concatenate(
            [(e + f).real, h_va[tr], h_va, (c + c[tr]).real / (vm[pr] * vm[pc]), sigma * 2 * ca]
        )
        if branches.n_rows:
            blocks = branches.sq_hessian(v, mu[: branches.n_rows])
            vals[: 4 * nnz] += np.bincount(br_slot, blocks.ravel(), 4 * nnz)
        return vals

    meta = {"base_mva": base}
    if "dg_map" in case.meta:
        meta["dg_gens"] = [g for ds in sorted(case.meta["dg_map"]) for g in case.meta["dg_map"][ds]]
    else:
        meta["dg_gens"] = list(range(ng))

    bus_owner = np.full(n, -1)
    for ds, own in case.meta.get("ds_buses", {}).items():
        bus_owner[[case.bus_index(b) for b in own]] = ds
    gen_owner = np.full(ng, -1)
    for ds, gens in case.meta.get("dg_map", {}).items():
        gen_owner[gens] = ds
    tab = case.branch_table
    f_own, t_own = bus_owner[tab.f[tab.closed]], bus_owner[tab.t[tab.closed]]
    if np.any((f_own != t_own) & (f_own >= 0) & (t_own >= 0)):
        raise ValueError("a closed branch joins the buses of two DSs")

    return NlpProblem(
        x0=x0,
        lb=lb,
        ub=ub,
        objective=objective,
        equalities=equalities,
        inequalities=inequalities,
        lag_hess=lag_hess,
        hess_at=hess_at,
        eq_at=jac_at,
        ineq_at=(np.repeat(np.arange(branches.n_rows), 4), branches.cols.ravel()),
        var_slices={"theta": i_th, "vm": i_vm, "pg": i_pg, "qg": i_qg},
        meta=meta,
        col_owner=np.concatenate([bus_owner, bus_owner, gen_owner, gen_owner]),
        eq_owner=np.concatenate([bus_owner, bus_owner]),
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
    return append_linear_inequalities(
        problem, *chart_rows(charts, p_cols, q_cols, scale=problem.meta["base_mva"])
    )


def chart_rows(charts: list[PQChart], p_cols, q_cols, scale: float = 1.0):
    """Facet rows a_pq . (x[p_col], x[q_col]) * scale <= b_pq, chart by chart.

    Chart k constrains columns (p_cols[k], q_cols[k]); scale converts the
    variables to the chart's MW/MVAr.  Returns (pattern, values, b), two
    entries per row.
    """
    a = np.concatenate([c.a_pq for c in charts]) * scale
    k = np.repeat(np.arange(len(charts)), [len(c.b_pq) for c in charts])
    cols = np.stack([np.asarray(p_cols)[k], np.asarray(q_cols)[k]], axis=1)
    at = (np.repeat(np.arange(len(a)), 2), cols.ravel())
    return at, a.ravel(), np.concatenate([c.b_pq for c in charts])


# ---------------------------------------------------------------------------
# Primal-dual interior point solver
# ---------------------------------------------------------------------------

SIGMA = 0.2  # barrier reduction factor
XI = 0.99995  # fraction-to-boundary


@dataclass
class NlpOptions:
    feastol: float = 1e-6
    gradtol: float = 1e-6
    comptol: float = 1e-6
    costtol: float = 1e-6
    max_iter: int = 200


@dataclass
class OpfSolution:
    x: np.ndarray
    objective: float
    status: str  # optimal | iteration_limit (stopped at the cap) | infeasible (a breakdown)
    iterations: int
    solve_time: float
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


class KktBlocks:
    """The Newton system of solve_nlp, formed and solved by owner blocks.

    The system is K = [[M, Jg^T], [Jg, 0]] over the free columns and the
    equality rows, with M = H + Jh^T W Jh plus the bounds' weights, where
    Jh stacks the inequalities rows and the linear rows.  Ordered by owner
    it is bordered block-diagonal: each owner's block meets only the border
    (owner -1), through the few border entries it touches.  form writes the
    diagonal blocks and each block's strip of the border; solve eliminates
    each block against its right-hand side and those entries, solves the
    border's Schur complement, and back-substitutes.  K is symmetric, so a
    strip serves both sides of the border.  A problem without owners is a
    border alone, solved as one dense system.

    Everything is placed once, from the problem's patterns: the flat
    position in a block or a strip of each distinct H and Jg entry, the
    border entries each strip touches, and the group of each row of Jh, the
    block whose columns it touches (the border if none).  A group's rows
    are one dense matrix over its block's columns and the border columns
    they touch; the linear rows are written into it once, the inequalities
    rows on each form, which then adds the group's Jh^T W Jh with one
    product.  A row or Hessian entry that joins two blocks' columns would
    lose its cross terms, so it is refused here.
    """

    def __init__(self, problem: NlpProblem, fc: np.ndarray, neq: int, nnl: int):
        n = problem.n
        col_owner = np.full(n, -1) if problem.col_owner is None else problem.col_owner
        eq_owner = np.full(neq, -1) if problem.eq_owner is None else problem.eq_owner
        owners = sorted((set(col_owner[fc]) | set(eq_owner)) - {-1})
        # (free columns, equality rows) of each owner, the border last
        self.parts = [
            (fc[col_owner[fc] == o], np.flatnonzero(eq_owner == o)) for o in (*owners, -1)
        ]
        self.mats = [np.zeros((len(c) + len(e),) * 2) for c, e in self.parts]
        border = len(self.parts) - 1
        width = len(self.mats[-1])
        self.strips = [np.zeros((len(a), width)) for a in self.mats[:-1]]
        # the block of each column (-1 if pinned) and equality row, and its
        # place in that block's matrix
        blk, pos = np.full(n, -1), np.zeros(n, dtype=int)
        eq_blk, eq_pos = np.zeros(neq, dtype=int), np.zeros(neq, dtype=int)
        for b, (c, e) in enumerate(self.parts):
            blk[c], pos[c] = b, np.arange(len(c))
            eq_blk[e], eq_pos[e] = b, len(c) + np.arange(len(e))
        # the matrices form writes, blocks then strips, and their row lengths
        size = np.array([len(a) for a in self.mats] + [width] * border)

        def placed(k, t, r, c):
            """Per matrix, the entries k placed in it (t == its index), and where."""
            flat = r * size[t] + c
            return [(k[t == i], flat[t == i]) for i in range(len(size))]

        # H: an entry within a block goes to it, and a block's column against
        # a border column to that block's strip; its mirror is not read
        self.h_sum, (hr, hc) = _distinct(problem.hess_at, n)
        rb, cb = blk[hr], blk[hc]
        _refuse(
            (rb >= 0) & (cb >= 0) & (rb != cb) & (rb != border) & (cb != border),
            lambda k: f"Lagrangian Hessian entry ({hr[k]}, {hc[k]})",
        )
        t = np.where(rb == cb, rb, np.where(cb == border, border + 1 + rb, -1))
        t[(rb < 0) | (cb < 0)] = -1
        self.h_at = placed(np.arange(len(hr)), t, pos[hr], pos[hc])
        # Jg: an entry within a block goes to it as Jg and as Jg^T; a block's
        # row against a border column, or a border row against a block's
        # column, to that block's strip
        self.g_sum, (gr, gc) = _distinct(problem.eq_at, n)
        eb, cb = eq_blk[gr], blk[gc]
        _refuse(
            (cb >= 0) & (eb != cb) & (eb != border) & (cb != border),
            lambda k: f"equality row {gr[k]}",
        )
        as_jg = np.where(eb == cb, eb, np.where(cb == border, border + 1 + eb, -1))
        as_jgt = np.where(eb == cb, eb, np.where(eb == border, border + 1 + cb, -1))
        as_jg[cb < 0] = as_jgt[cb < 0] = -1
        k, ep, cp = np.arange(len(gr)), eq_pos[gr], pos[gc]
        self.g_at = placed(
            np.concatenate([k, k]),
            np.concatenate([as_jg, as_jgt]),
            np.concatenate([ep, cp]),
            np.concatenate([cp, ep]),
        )

        # Jh's rows, the inequalities rows then the linear rows, by group
        (ir, ic), (lr, lc) = problem.ineq_at, problem.lin_at
        nlin = len(problem.b_lin)
        rows, cols = np.concatenate([ir, nnl + lr]), np.concatenate([ic, lc])
        rb = blk[cols]
        inner = (rb >= 0) & (rb != border)
        group = np.full(nnl + nlin, border)
        np.minimum.at(group, rows[inner], rb[inner])
        other = np.full(nnl + nlin, -1)
        np.maximum.at(other, rows[inner], rb[inner])
        _refuse(
            (other >= 0) & (other != group),
            lambda r: f"inequality row {r}" if r < nnl else f"linear row {r - nnl}",
        )
        self.j_sum, (jr, jc) = _distinct(problem.ineq_at, n)
        self.groups = []
        in_group, lin_group = group[rows], group[nnl + lr]
        for b, (c, _) in enumerate(self.parts):
            g_rows = np.flatnonzero(group == b)
            reach = (in_group == b) & (rb == border)
            t = np.unique(pos[cols[reach]]) if b < border else np.zeros(0, dtype=int)
            g_cols = np.concatenate([c, self.parts[-1][0][t]])
            row_at, col_at = np.zeros(nnl + nlin, dtype=int), np.full(n, -1)
            row_at[g_rows], col_at[g_cols] = np.arange(len(g_rows)), np.arange(len(g_cols))
            lin = np.flatnonzero((lin_group == b) & (col_at[lc] >= 0))
            flat = row_at[nnl + lr[lin]] * len(g_cols) + col_at[lc[lin]]
            j = np.zeros((len(g_rows), len(g_cols)))
            j.ravel()[:] = np.bincount(flat, problem.lin_val[lin], j.size)
            nl = (group[jr] == b) & (col_at[jc] >= 0)
            flat = row_at[jr[nl]] * len(g_cols) + col_at[jc[nl]]
            self.groups.append(
                _Group(j, g_rows, g_cols, t, _flat(t, t, width), np.flatnonzero(nl), flat, nnl)
            )
        self.lin_groups = [g for g in self.groups if len(g.lin)]
        # a pinned column's term of a linear row is a constant
        pin = blk[lc] < 0
        self.b_lin = problem.b_lin - np.bincount(
            lr[pin], problem.lin_val[pin] * problem.lb[lc[pin]], nlin
        )
        self.touch = [
            np.unique(np.concatenate([h[1] % width, g[1] % width, grp.t]))
            for h, g, grp in zip(self.h_at[border + 1 :], self.g_at[border + 1 :], self.groups)
        ]
        self.m_diag = [None] * len(self.parts)

    def form(self, hess, jg, jh, w, d_box):
        """Fill the blocks from the values of H, Jg and the inequalities' Jh on
        their patterns, the weights w of Jh's rows, and d_box on the diagonal."""
        jv = np.bincount(self.j_sum, jh)
        border = self.mats[-1]
        nb = len(self.parts[-1][0])
        # the border's group first, as the others add into its matrix
        last = len(self.groups) - 1
        for b in (last, *range(last)):
            grp, a, nc = self.groups[b], self.mats[b], len(self.parts[b][0])
            grp.j.ravel()[grp.flat] = jv[grp.take]
            np.multiply(w[grp.rows, None], grp.j, out=grp.wj)
            prod = np.matmul(grp.j.T, grp.wj, out=grp.prod)
            a[:nc, :nc] = prod[:nc, :nc]
            if b < last:
                s = self.strips[b]
                s[:nc, :nb] = 0.0
                s[:nc, grp.t] = prod[:nc, nc:]
                border.ravel()[grp.tt] += prod[nc:, nc:].ravel()
        hv = np.bincount(self.h_sum, hess)
        gv = np.bincount(self.g_sum, jg)
        for a, (kh, fh), (kg, fg) in zip(self.mats + self.strips, self.h_at, self.g_at):
            flat = a.ravel()
            flat[fh] += hv[kh]
            flat[fg] = gv[kg]
        for b, ((c, _), a) in enumerate(zip(self.parts, self.mats)):
            self.m_diag[b] = a.diagonal()[: len(c)] + d_box[c]

    def lin_dot(self, v: np.ndarray) -> np.ndarray:
        """A v over the linear rows, one product per group."""
        out = np.empty(len(self.b_lin))
        for g in self.lin_groups:
            out[g.lin] = g.j[g.n_nl :] @ v[g.cols]
        return out

    def lin_t_dot(self, w: np.ndarray, n: int) -> np.ndarray:
        """A^T w over the linear rows, one product per group."""
        out = np.zeros(n)
        for g in self.lin_groups:
            out[g.cols] += g.j[g.n_nl :].T @ w[g.lin]
        return out

    def solve(self, r_x: np.ndarray, r_g: np.ndarray, reg: float):
        """(dx, dlam) of K + reg diag(I, -I) against (r_x, r_g); pinned dx stay 0.

        Raises LinAlgError when a block or the Schur complement is singular.
        """
        for a, (c, e), d in zip(self.mats, self.parts, self.m_diag):
            a[np.diag_indices(len(a))] = np.concatenate([d + reg, np.full(len(e), -reg)])
        rhs = [np.concatenate([r_x[c], r_g[e]]) for c, e in self.parts]
        schur, r0 = self.mats[-1].copy(), rhs[-1]
        elim = []
        for a, s, t, r in zip(self.mats, self.strips, self.touch, rhs):
            st = s[:, t]
            y = np.linalg.solve(a, np.column_stack([st, r]))
            schur[np.ix_(t, t)] -= st.T @ y[:, :-1]
            r0[t] -= st.T @ y[:, -1]
            elim.append(y)
        sol = [np.linalg.solve(schur, r0)]
        sol = [y[:, -1] - y[:, :-1] @ sol[0][t] for y, t in zip(elim, self.touch)] + sol
        dx = np.zeros(len(r_x))
        dlam = np.empty(len(r_g))
        for (c, e), v in zip(self.parts, sol):
            dx[c], dlam[e] = v[: len(c)], v[len(c) :]
        return dx, dlam


@dataclass
class _Group:
    """The rows of Jh in one block's group, as a dense matrix j over the
    block's columns and then the border columns it touches (at border
    positions t): the inequalities rows, whose distinct entries take are
    written at flat on each form, then the linear rows, written once; wj
    and prod hold form's W j and j^T W j."""

    j: np.ndarray
    rows: np.ndarray  # in Jh: an inequalities row, or nnl + a linear row
    cols: np.ndarray
    t: np.ndarray
    tt: np.ndarray  # flat positions of the (t, t) entries in the border's matrix
    take: np.ndarray
    flat: np.ndarray
    nnl: int

    def __post_init__(self):
        self.n_nl = int(np.searchsorted(self.rows, self.nnl))
        self.lin = self.rows[self.n_nl :] - self.nnl
        self.wj = np.empty_like(self.j)
        self.prod = np.empty((self.j.shape[1],) * 2)


def _distinct(at: tuple, width: int):
    """(index of each entry's distinct entry, (rows, cols) of the distinct entries)."""
    key = np.asarray(at[0], dtype=int) * width + np.asarray(at[1], dtype=int)
    key, inverse = np.unique(key, return_inverse=True)
    return inverse, (key // width, key % width)


def _refuse(bad: np.ndarray, name) -> None:
    """Raise for the first flagged row or entry, named by name(index)."""
    if np.any(bad):
        raise ValueError(f"{name(np.flatnonzero(bad)[0])} spans the columns of two owners")


def _flat(rows: np.ndarray, cols: np.ndarray, width: int) -> np.ndarray:
    """Flat positions of the (rows x cols) grid in a matrix of this width."""
    return (rows[:, None] * width + cols).ravel()


# iterates may transiently overflow on diverging problems before the
# finiteness check below declares them infeasible; keep numpy quiet about it
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve_nlp(problem: NlpProblem, opts: NlpOptions | None = None) -> OpfSolution:
    """Primal-dual interior-point solve of an NlpProblem.

    Newton steps on the perturbed KKT system in reduced form, fraction-to-
    boundary step clipping, multiplicative barrier reduction.  Inequality
    rows come in three kinds, in this order in mu: the nonlinear rows, whose
    products run on their Jacobian's pattern; the constant linear rows,
    evaluated and weighted by owner group, one dense product per group; and
    the box bounds, kept as vectors: a finite bound is a row with one +-1
    entry, so its terms are a diagonal add and an index, and a pinned
    column is held at its bound outside the Newton system.  No iteration
    forms an array as wide as x in both dimensions, or as tall as the rows
    and as wide as x.  The Newton system is formed from the derivative
    values and solved by the problem's owner blocks (KktBlocks), in one set
    of buffers per solve: each block is eliminated against the border
    entries it touches, then the border's Schur complement is solved.  A
    singular block or complement, or a non-finite step, takes the next step
    of one regularization ladder on the whole system.  Bound slacks and
    multipliers count in the convergence tests like those of the user rows;
    a pinned column's stationarity does not, as its multiplier is free.  A
    solve stopped at the iteration cap is iteration_limit, whatever its
    last violation, and its message names the cap and the last residuals;
    infeasible is kept for a breakdown, a KKT system singular beyond
    regularization or diverged iterates, named in the message.  A problem
    needs at least one inequality row or finite bound, for its barrier.
    """
    opts = opts or NlpOptions()
    t0 = time.perf_counter()
    pinned, col, sign, cap = box_bounds(problem)
    x = problem.x0.astype(float).copy()
    x[pinned] = problem.lb[pinned]
    n = len(x)
    fc = np.flatnonzero(~pinned)  # the columns of the Newton system
    (eq_r, eq_c), (in_r, in_c) = problem.eq_at, problem.ineq_at

    def stacked(h, x):
        """The nonlinear rows' values h, then the linear rows' and the bounds' at x."""
        return np.concatenate([h, kkt.lin_dot(x) - kkt.b_lin, sign * (x[col] - cap)])

    def evaluate(x):
        g, jg = problem.eq(x)
        h, jh = problem.nonlinear_ineq(x)
        return g, jg, stacked(h, x), jh

    def jg_t(jg, lam):
        return np.bincount(eq_c, jg * lam[eq_r], n)

    def jh_t(jh, w):
        """Jh^T w over the nonlinear, linear and bound rows."""
        return (
            np.bincount(in_c, jh * w[in_r], n)
            + kkt.lin_t_dot(w[nnl:nh], n)
            + np.bincount(col, sign * w[nh:], n)
        )

    f, df = problem.objective(x)
    g, jg = problem.eq(x)
    h, jh = problem.nonlinear_ineq(x)
    neq, nnl = len(g), len(h)
    kkt = KktBlocks(problem, fc, neq, nnl)
    h = stacked(h, x)
    niq = len(h)
    if not niq:
        raise ValueError("problem has no inequality row and no finite bound")
    nh = nnl + len(problem.b_lin)  # user rows: nonlinear, then linear
    lam = np.zeros(neq)
    z = np.ones(niq)
    mu = np.ones(niq)
    k = h < -1.0
    z[k] = -h[k]
    gamma = 1.0
    k = gamma / z > 1.0
    mu[k] = gamma / z[k]

    def residuals(f, df, g, h, jg, jh, lam, mu, x, z):
        lx = df + jg_t(jg, lam) + jh_t(jh, mu)
        maxh = np.max(h)
        maxg = np.max(np.abs(g)) if neq else 0.0
        normx = max(np.max(np.abs(x)), 1.0)
        normz = np.max(np.abs(z))
        feascond = max(maxg, maxh) / (1 + max(normx, normz))
        gradcond = np.max(np.abs(lx[fc]), initial=0.0) / (
            1 + max(np.max(np.abs(lam)) if neq else 0.0, np.max(np.abs(mu)))
        )
        compcond = (z @ mu) / (1 + np.max(np.abs(x))) / niq
        return lx, feascond, gradcond, compcond

    lx, feascond, gradcond, compcond = residuals(f, df, g, h, jg, jh, lam, mu, x, z)
    f_prev = f
    costcond = np.inf
    converged = feascond < opts.feastol and gradcond < opts.gradtol and compcond < opts.comptol
    it = 0
    message = ""

    while not converged and it < opts.max_iter:
        it += 1
        zinv = 1.0 / z
        w = mu * zinv
        kkt.form(
            problem.lag_hess(x, 1.0, lam, mu[:nnl]),
            jg,
            jh,
            w[:nh],
            np.bincount(col, w[nh:], n),
        )
        nvec = lx + jh_t(jh, zinv * (gamma + mu * h))

        reg = 0.0
        for _ in range(7):
            try:
                dx, dlam = kkt.solve(-nvec, -g, reg)
                if np.all(np.isfinite(dx)) and np.all(np.isfinite(dlam)):
                    break
            except np.linalg.LinAlgError:
                pass
            reg = max(10 * reg, 1e-10)
        else:
            message = "KKT system singular beyond regularization"
            break

        jh_dx = np.bincount(in_r, jh * dx[in_c], nnl)
        dz = -h - z - np.concatenate([jh_dx, kkt.lin_dot(dx), sign * dx[col]])
        dmu = -mu + zinv * (gamma - mu * dz)
        kz = dz < 0
        alphap = min(1.0, XI * np.min(z[kz] / -dz[kz])) if np.any(kz) else 1.0
        km = dmu < 0
        alphad = min(1.0, XI * np.min(mu[km] / -dmu[km])) if np.any(km) else 1.0

        x = x + alphap * dx
        z = z + alphap * dz
        mu = mu + alphad * dmu
        lam = lam + alphad * dlam

        f, df = problem.objective(x)
        g, jg, h, jh = evaluate(x)
        gamma = SIGMA * (z @ mu) / niq
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
    if converged:
        status = "optimal"
    elif message:
        status = "infeasible"
    else:
        status = "iteration_limit"
    if not converged and not message:
        message = (
            f"stopped at the {opts.max_iter}-iteration cap: feasibility {feascond:.3g}, "
            f"gradient {gradcond:.3g}, complementarity {compcond:.3g}"
        )

    sol = OpfSolution(
        x=x,
        objective=f,
        status=status,
        iterations=it,
        solve_time=elapsed,
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
    ds_cols = problem.meta.get("x_ds_cols")
    if ds_cols:
        sol.x_ds = {ds: sol.x[cols] for ds, cols in ds_cols.items()}


def solve_standard(case: NetworkCase, opts: NlpOptions | None = None, charts=None) -> OpfSolution:
    """Assemble and solve the standard AC-OPF, optionally with polygon rows."""
    problem = assemble_standard(case)
    if charts:
        problem = assemble_polygon_extension(problem, charts)
    return solve_nlp(problem, opts)
