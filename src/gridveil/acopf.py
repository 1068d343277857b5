"""AC optimal power flow as a smooth NLP, and the interior-point engine.

assemble_standard builds the full nonlinear program for a transmission or
integrated case over x = (theta, vm, p_g, q_g) in per unit: bus power balance
as equalities, squared apparent-power line limits as inequalities, operating
ranges as box bounds, quadratic generation cost as the objective.  Its
derivatives use the structure of the network: a branch-end flow row touches
two buses, so its Jacobian row has two entries per coordinate and its
Hessian is a 4x4 block; the bus injections, their Jacobian and their
Hessian are computed only on the pattern of Ybus, found once per assembly,
and the flow blocks are summed onto that pattern with np.bincount, so the
callbacks do work in proportion to the branches, apart from filling the
dense arrays they return.
solve_nlp is a primal-dual interior-point method in the MATPOWER/MIPS
mold, driven by the exact analytic Lagrangian Hessian that every problem
supplies.  It keeps box bounds as vectors (box_bounds) rather than
constraint rows, holds a column with lb == ub at its bound, and works on
constant linear rows only over the columns they touch.  Its Newton system
is formed and solved by owner blocks (KktBlocks): on an integrated case,
one dense block per DS, bordered by the TS, whose Schur complement joins
them.

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

    def sq_constraints(self, v: np.ndarray, width: int):
        """h = |S|^2 - limit^2 and its Jacobian (rows x width), theta then vm columns."""
        n = self.n_bus
        s = self._terms(v)[2]
        h = s.real**2 + s.imag**2 - self.limit_sq
        ds_dva, ds_dvm = self.flow_jacobian(v)
        jac = np.zeros((self.n_rows, width))
        r = np.arange(self.n_rows)
        # two writes per row: a branch whose ends share a bus adds up
        for off, ds in ((0, ds_dva), (n, ds_dvm)):
            d = 2 * np.real(np.conj(s)[:, None] * ds)
            jac[r, off + self.bus[:, 0]] = d[:, 0]
            jac[r, off + self.bus[:, 1]] += d[:, 1]
        return h, jac

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


@dataclass
class NlpProblem:
    """min f(x) s.t. g(x)=0, h(x)<=0, a_lin x <= b_lin, lb<=x<=ub.

    objective(x) -> (f, grad); equalities/inequalities(x) -> (values, dense
    Jacobian) of the smooth rows; lag_hess(x, sigma, lam, mu) -> sigma*d2f +
    d2g.lam + d2h.mu, where mu's leading entries belong to the inequalities
    rows and any further ones (linear rows) carry no curvature.  The linear
    rows a_lin x <= b_lin are constant data.  var_slices names the blocks of
    x for unpacking and reporting.

    col_owner and eq_owner partition the columns and the equality rows: -1
    is the border, and any other owner is a block whose derivatives and
    linear rows meet no other owner's columns or rows, only the border's.
    None puts everything in the border, as one block.
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
    a_lin: np.ndarray | None = None
    b_lin: np.ndarray | None = None
    col_owner: np.ndarray | None = None
    eq_owner: np.ndarray | None = None

    def __post_init__(self):
        if self.a_lin is None:
            self.a_lin, self.b_lin = np.zeros((0, self.n)), np.zeros(0)

    @property
    def n(self) -> int:
        return len(self.x0)

    def eq(self, x):
        if self.equalities is None:
            return np.zeros(0), np.zeros((0, self.n))
        return self.equalities(x)

    def nonlinear_ineq(self, x):
        """The inequalities rows alone, without the linear ones."""
        if self.inequalities is None:
            return np.zeros(0), np.zeros((0, self.n))
        return self.inequalities(x)

    def ineq(self, x):
        """Every inequality row: the nonlinear ones, then the linear ones."""
        h, jh = self.nonlinear_ineq(x)
        if not len(self.b_lin):
            return h, jh
        return np.concatenate([h, self.a_lin @ x - self.b_lin]), np.vstack([jh, self.a_lin])


def append_linear_inequalities(problem: NlpProblem, a_new: np.ndarray, b_new: np.ndarray):
    """Extend problem with rows a_new @ x <= b_new (in place, returns problem)."""
    problem.a_lin = np.vstack([problem.a_lin, a_new])
    problem.b_lin = np.concatenate([problem.b_lin, b_new])
    return problem


# ---------------------------------------------------------------------------
# Standard AC-OPF assembly
# ---------------------------------------------------------------------------


def assemble_standard(case: NetworkCase) -> NlpProblem:
    """Full AC-OPF over x = (theta, vm, p_g, q_g), per unit.

    Equalities: active/reactive balance at every bus, plus the angle
    reference (slack theta pinned through an equal-bound box).  Inequalities:
    squared apparent-power limits at both ends of every rated branch.
    Callbacks size their outputs by len(x), so columns a caller appends
    after this block read zero in every gradient, Jacobian and Hessian.
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
        jac = np.zeros((2 * n, len(x)))
        jac[jac_at] = np.concatenate([d_va.real, d_vm.real, d_va.imag, d_vm.imag, minus_one])
        return np.concatenate([mis.real, mis.imag]), jac

    def inequalities(x):
        return branches.sq_constraints(voltages(x), len(x))

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
        hess = np.zeros((len(x), len(x)))
        hess[hess_at] = vals
        return hess

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


class KktBlocks:
    """The Newton system of solve_nlp, formed and solved by owner blocks.

    The system is K = [[M, Jg^T], [Jg, 0]] over the free columns and the
    equality rows, with M = H + Jh^T W Jh plus the linear rows' and bounds'
    weights.  Ordered by owner it is bordered block-diagonal: each owner's
    block meets only the border (owner -1), through the few border entries
    it touches.  form writes the diagonal blocks and each block's strip of
    the border; solve eliminates each block against its right-hand side
    and those entries, solves the border's Schur complement, and
    back-substitutes.  K is symmetric, so a strip serves both sides of the
    border.  A problem without owners is a border alone, solved as one
    dense system.  The flat positions of every block's and strip's entries
    in H and Jg are found once; on each form, one product of Jh's pattern
    with the owners' indicator columns finds the Jh rows that reach each
    block, and the border.
    """

    def __init__(self, problem: NlpProblem, fc: np.ndarray, neq: int, sup: np.ndarray):
        col_owner = np.full(problem.n, -1) if problem.col_owner is None else problem.col_owner
        eq_owner = np.full(neq, -1) if problem.eq_owner is None else problem.eq_owner
        owners = sorted((set(col_owner[fc]) | set(eq_owner)) - {-1})
        lin = np.where(problem.a_lin[:, sup] != 0, col_owner[sup], -1)
        if np.any((lin >= 0) & (lin != lin.max(axis=1, initial=-1)[:, None])):
            raise ValueError("a linear row spans the columns of two owners")
        # (free columns, equality rows) of each owner, the border last
        self.parts = [
            (fc[col_owner[fc] == o], np.flatnonzero(eq_owner == o)) for o in (*owners, -1)
        ]
        self.mats = [np.zeros((len(c) + len(e),) * 2) for c, e in self.parts]
        width = len(self.mats[-1])
        self.strips = [np.zeros((len(a), width)) for a in self.mats[:-1]]
        # flat positions of the linear rows' weights in each matrix and strip,
        # and of their entries in the (sup x sup) m_lin
        ns = len(sup)
        _, bpos, bsup = np.intersect1d(self.parts[-1][0], sup, return_indices=True)
        self.lin = []
        for (c, _), a in zip(self.parts, self.mats):
            _, pos, at = np.intersect1d(c, sup, return_indices=True)
            diag = _flat(pos, pos, len(a)), _flat(at, at, ns)
            self.lin.append((*diag, _flat(pos, bpos, width), _flat(at, bsup, ns)))
        # flat positions in H and Jg (both n columns wide) of each block's H
        # and Jg entries, and of its strip's: H against the border columns,
        # the border rows of Jg transposed, and Jg against the border columns
        n = problem.n
        bc, be = self.parts[-1]
        self.at = [
            (
                _flat(c, c, n),
                _flat(e, c, n),
                _flat(c, bc, n),
                _flat(be, c, n).reshape(len(be), len(c)).T.ravel(),
                _flat(e, bc, n),
            )
            for c, e in self.parts
        ]
        # one indicator column per block over its free columns: a Jh row
        # reaches a block when its pattern meets that column
        self.owner = np.zeros((n, len(self.parts)))
        for b, (c, _) in enumerate(self.parts):
            self.owner[c, b] = 1.0
        self.m_diag = [None] * len(self.parts)
        self.touch = [None] * len(self.strips)

    def form(self, hess, jg, jh, w, m_lin, d_box):
        """Fill the blocks: H, Jh^T diag(w) Jh, m_lin on sup and d_box on the diagonal."""
        bc = self.parts[-1][0]
        nb = len(bc)
        reach = (jh != 0) @ self.owner  # entries of each Jh row in each block
        m_flat = m_lin.ravel()
        blocks = zip(self.parts, self.mats, self.lin, self.at)
        for b, ((c, e), a, (ia, im, sa, sm), (hc, gc, hb, gb, gq)) in enumerate(blocks):
            nc = len(c)
            rows = np.flatnonzero(reach[:, b])
            jr = jh[np.ix_(rows, c)]
            wj = jr.T * w[rows]
            a[:nc, :nc] = hess.take(hc).reshape(nc, nc) + wj @ jr
            a.ravel()[ia] += m_flat[im]
            a[nc:, :nc] = jg.take(gc).reshape(len(e), nc)
            a[:nc, nc:] = a[nc:, :nc].T
            self.m_diag[b] = a[np.diag_indices(nc)] + d_box[c]
            if b == len(self.strips):
                break
            s = self.strips[b]
            both = reach[rows, -1] != 0  # the rows that reach the border too
            s[:nc, :nb] = hess.take(hb).reshape(nc, nb) + wj[:, both] @ jh[np.ix_(rows[both], bc)]
            s.ravel()[sa] += m_flat[sm]
            s[:nc, nb:] = jg.take(gb).reshape(nc, -1)
            s[nc:, :nb] = jg.take(gq).reshape(len(e), nb)
            self.touch[b] = np.flatnonzero(s.any(axis=0))

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
    rows come in three kinds, in this order in mu: the nonlinear rows with
    their dense Jacobian; the constant linear rows, evaluated and weighted
    only on the columns they touch, so that A_s^T W A_s enters one small
    block of the KKT matrix; and the box bounds, kept as vectors: a finite
    bound is a row with one +-1 entry, so its terms are a diagonal add and
    an index, and a pinned column is held at its bound outside the Newton
    system.  That system is formed and solved by the problem's owner blocks
    (KktBlocks), in one set of buffers per solve: each block is eliminated
    against the border entries it touches, then the border's Schur
    complement is solved.  A singular block or complement, or a non-finite
    step, takes the next step of one regularization ladder on the whole
    system.  Bound slacks and multipliers count in the convergence tests
    like those of the user rows; a pinned column's stationarity does not,
    as its multiplier is free.  A solve stopped at the iteration cap is
    iteration_limit, whatever its last violation, and its message names the
    cap and the last residuals; infeasible is kept for a breakdown, a KKT
    system singular beyond regularization or diverged iterates, named in
    the message.  A problem needs at least one inequality row or finite
    bound, for its barrier.
    """
    opts = opts or NlpOptions()
    t0 = time.perf_counter()
    pinned, col, sign, cap = box_bounds(problem)
    x = problem.x0.astype(float).copy()
    x[pinned] = problem.lb[pinned]
    n = len(x)
    fc = np.flatnonzero(~pinned)  # the columns of the Newton system
    sup = np.flatnonzero(np.any(problem.a_lin != 0, axis=0))  # linear rows' columns
    a_s, b_lin = problem.a_lin[:, sup], problem.b_lin

    def evaluate(x):
        g, jg = problem.eq(x)
        h, jh = problem.nonlinear_ineq(x)
        return g, jg, np.concatenate([h, a_s @ x[sup] - b_lin, sign * (x[col] - cap)]), jh

    def jh_t(jh, w):
        """Jh^T w over the nonlinear, linear and bound rows."""
        out = jh.T @ w[:nnl] + np.bincount(col, weights=sign * w[nh:], minlength=n)
        out[sup] += a_s.T @ w[nnl:nh]
        return out

    f, df = problem.objective(x)
    g, jg, h, jh = evaluate(x)
    neq, niq, nnl = len(g), len(h), len(jh)
    if not niq:
        raise ValueError("problem has no inequality row and no finite bound")
    nh = nnl + len(b_lin)  # user rows: nonlinear, then linear
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
    kkt = KktBlocks(problem, fc, neq, sup)

    while not converged and it < opts.max_iter:
        it += 1
        zinv = 1.0 / z
        w = mu * zinv
        kkt.form(
            problem.lag_hess(x, 1.0, lam, mu[:nnl]),
            jg,
            jh,
            w[:nnl],
            (a_s.T * w[nnl:nh]) @ a_s,
            np.bincount(col, weights=w[nh:], minlength=n),
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

        dz = -h - z - np.concatenate([jh @ dx, a_s @ dx[sup], sign * dx[col]])
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
    violation = float(max(np.max(np.abs(g)) if neq else 0.0, np.max(h), 0.0))
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
    ds_cols = problem.meta.get("x_ds_cols")
    if ds_cols:
        sol.x_ds = {ds: sol.x[cols] for ds, cols in ds_cols.items()}


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
