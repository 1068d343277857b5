"""Independent reference implementations the tests check the package against.

Everything here is deliberately written from scratch against textbook
formulas, not by importing package internals: backward/forward-sweep power
flow for radial feeders, ray-crossing polygon membership, per-branch 2x2
admittance stamping, MATPOWER's dense-matrix OPF derivatives, a brute-force
grid optimizer for a 3-bus OPF, the interior-point Newton system formed and
solved as one dense matrix, first-order optimality residuals from dense
derivatives, the max-aggregator's forward pass and a plain trainer for it,
and finite-difference derivative checks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from gridveil.acopf import box_bounds


# ---------------------------------------------------------------------------
# Radial backward/forward sweep
# ---------------------------------------------------------------------------


def bfs_powerflow(case, v_root: float = 1.0, p_inj=None, q_inj=None, tol=1e-12, max_iter=500):
    """Backward/forward sweep on a radial case with one slack/pcc root.

    p_inj/q_inj are extra MW/MVAr injections per bus id (generation positive),
    matching the newton_pf convention.  Returns complex voltages in case bus
    order.  Only plain series branches are supported (no shunts, no taps).
    """
    closed = [br for br in case.branches if br.status]
    if any(br.b_sh != 0 or br.tap not in (0.0, 1.0) for br in closed):
        raise ValueError("sweep oracle handles plain series branches only")
    roots = [b.id for b in case.buses if b.kind in ("slack", "pcc")]
    if len(roots) != 1:
        raise ValueError("sweep oracle needs exactly one root bus")
    root = roots[0]
    n = len(case.buses)
    if len(closed) != n - 1:
        raise ValueError("case is not radial")
    idx = {b.id: i for i, b in enumerate(case.buses)}

    adj: dict[int, list] = {b.id: [] for b in case.buses}
    for br in closed:
        adj[br.from_bus].append((br.to_bus, br))
        adj[br.to_bus].append((br.from_bus, br))
    order = [root]
    parent: dict[int, int] = {root: root}
    z_to: dict[int, complex] = {}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w, br in adj[u]:
            if w not in parent:
                parent[w] = u
                z_to[w] = complex(br.r, br.x)
                order.append(w)
                queue.append(w)
    if len(order) != n:
        raise ValueError("case is not connected")

    s = np.array([complex(-b.p_d, -b.q_d) for b in case.buses]) / case.base_mva
    for bid, p in (p_inj or {}).items():
        s[idx[bid]] += p / case.base_mva
    for bid, q in (q_inj or {}).items():
        s[idx[bid]] += 1j * q / case.base_mva

    v = np.full(n, complex(v_root), dtype=complex)
    for _ in range(max_iter):
        # backward: accumulate drawn currents from the leaves toward the root
        drawn = -np.conj(s / v)
        for w in reversed(order[1:]):
            drawn[idx[parent[w]]] += drawn[idx[w]]
        # forward: drop voltages along every branch
        v_new = v.copy()
        v_new[idx[root]] = v_root
        for w in order[1:]:
            v_new[idx[w]] = v_new[idx[parent[w]]] - z_to[w] * drawn[idx[w]]
        step = float(np.max(np.abs(v_new - v)))
        v = v_new
        if step < tol:
            return v
    raise RuntimeError("sweep did not converge")


# ---------------------------------------------------------------------------
# Polygon membership and area
# ---------------------------------------------------------------------------


def crossing_contains(vertices, p: float, q: float) -> bool:
    """Ray-crossing parity test (strict interior for points off the boundary)."""
    inside = False
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        if (y1 > q) != (y2 > q):
            xi = x1 + (q - y1) * (x2 - x1) / (y2 - y1)
            if p < xi:
                inside = not inside
    return inside


def shoelace_area(vertices) -> float:
    a = 0.0
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        a += x1 * y2 - x2 * y1
    return abs(a) / 2.0


# ---------------------------------------------------------------------------
# Admittance stamping
# ---------------------------------------------------------------------------


def stamp_ybus(case) -> np.ndarray:
    """Dense bus admittance built by summing independent per-branch 2x2 stamps."""
    n = len(case.buses)
    idx = {b.id: i for i, b in enumerate(case.buses)}
    y = np.zeros((n, n), dtype=complex)
    for br in case.branches:
        if not br.status:
            continue
        f, t = idx[br.from_bus], idx[br.to_bus]
        ys = 1.0 / complex(br.r, br.x)
        bc = 1j * br.b_sh / 2.0
        tau = br.tap if br.tap not in (0.0, 0) else 1.0
        y[f, f] += (ys + bc) / tau**2
        y[f, t] += -ys / tau
        y[t, f] += -ys / tau
        y[t, t] += ys + bc
    return y


def stamp_branch_rows(case):
    """Dense flow rows of the rated, closed branches: from ends, then to ends.

    Returns (yb, cidx): row r of yb maps bus voltages to the current leaving
    bus cidx[r] into the branch, so the flow is V[cidx] conj(yb V).
    """
    n = len(case.buses)
    idx = {b.id: i for i, b in enumerate(case.buses)}
    rated = [br for br in case.branches if br.status and br.s_max > 0]
    yb = np.zeros((2 * len(rated), n), dtype=complex)
    cidx = np.zeros(2 * len(rated), dtype=int)
    for k, br in enumerate(rated):
        f, t = idx[br.from_bus], idx[br.to_bus]
        ys = 1.0 / complex(br.r, br.x)
        bc = 1j * br.b_sh / 2.0
        tau = br.tap if br.tap not in (0.0, 0) else 1.0
        yb[k, f], yb[k, t], cidx[k] = (ys + bc) / tau**2, -ys / tau, f
        r = len(rated) + k
        yb[r, f], yb[r, t], cidx[r] = -ys / tau, ys + bc, t
    return yb, cidx


def two_bus_flow(v1, th1, v2, th2, r, x, b_sh=0.0):
    """Textbook sending-end P/Q of a pi branch, from the sin/cos formulas."""
    y = 1.0 / complex(r, x)
    g, b = y.real, y.imag
    th = th1 - th2
    p = v1 * v1 * g - v1 * v2 * (g * np.cos(th) + b * np.sin(th))
    q = -v1 * v1 * (b + b_sh / 2.0) - v1 * v2 * (g * np.sin(th) - b * np.cos(th))
    return p, q


# ---------------------------------------------------------------------------
# Dense OPF derivatives
# ---------------------------------------------------------------------------
#
# MATPOWER's matrix forms (Zimmerman et al., IEEE TPWRS 26(1), 2011):
# dSbr_dV, d2ASbr_dV2 and d2Sbus_dV2 in polar coordinates, with every
# diagonal matrix spelled out as np.diag.


def dense_bus_jacobian(ybus, v):
    """dS/dVa and dS/dVm of the bus injections S = V conj(Ybus V), complex (n x n)."""
    ibus = ybus @ v
    diag_v = np.diag(v)
    diag_vnorm = np.diag(v / np.abs(v))
    ds_dvm = diag_v @ np.conj(ybus @ diag_vnorm) + np.conj(np.diag(ibus)) @ diag_vnorm
    ds_dva = 1j * diag_v @ np.conj(np.diag(ibus) - ybus @ diag_v)
    return ds_dva, ds_dvm


def dense_flow_jacobian(yb, cidx, v):
    """dS/dVa and dS/dVm of every flow row, complex (rows x n_bus)."""
    c_rows = np.zeros_like(yb)
    c_rows[np.arange(len(cidx)), cidx] = 1.0
    vnorm = v / np.abs(v)
    ib = yb @ v
    vc = v[cidx]
    ds_dva = 1j * (
        np.conj(ib)[:, None] * c_rows * v[None, :] - vc[:, None] * np.conj(yb * v[None, :])
    )
    ds_dvm = vc[:, None] * np.conj(yb * vnorm[None, :]) + np.conj(ib)[
        :, None
    ] * c_rows * vnorm[None, :]
    return ds_dva, ds_dvm


def dense_sq_hessian(yb, cidx, v, mu):
    """Hessian of mu . |S|^2 wrt (theta, vm), real (2n x 2n)."""
    c_rows = np.zeros_like(yb)
    c_rows[np.arange(len(cidx)), cidx] = 1.0
    s = v[cidx] * np.conj(yb @ v)
    ds_dva, ds_dvm = dense_flow_jacobian(yb, cidx, v)
    lam = np.conj(s) * mu
    a = yb.conj().T @ (lam[:, None] * c_rows)
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


def dense_bus_injection_hessian(ybus, v, lam_p, lam_q):
    """Hessian of lam_p . Re(S(V)) + lam_q . Im(S(V)) wrt (theta, vm)."""
    lam = lam_p - 1j * lam_q
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


def dense_opf_derivatives(case, x, sigma, lam, mu):
    """The standard AC-OPF's derivatives at x = (theta, vm, p_g, q_g), dense:
    (Jg of the balance rows, Jh of the squared flow-limit rows, Lagrangian
    Hessian at (sigma, lam, mu)), from the matrix formulas above."""
    n, ng = len(case.buses), len(case.generators)
    idx = {b.id: i for i, b in enumerate(case.buses)}
    v = x[n : 2 * n] * np.exp(1j * x[:n])
    kg = np.zeros((n, ng))
    kg[[idx[gen.bus] for gen in case.generators], np.arange(ng)] = 1.0
    jg = np.zeros((2 * n, 2 * n + 2 * ng))
    ds_dva, ds_dvm = dense_bus_jacobian(case.ybus, v)
    jg[:, : 2 * n] = np.block([[ds_dva.real, ds_dvm.real], [ds_dva.imag, ds_dvm.imag]])
    jg[:n, 2 * n : 2 * n + ng] = jg[n:, 2 * n + ng :] = -kg
    yb, cidx = stamp_branch_rows(case)
    s_conj = np.conj(v[cidx]) * (yb @ v)
    jh = np.zeros((len(cidx), jg.shape[1]))
    jh[:, : 2 * n] = 2 * np.real(s_conj[:, None] * np.hstack(dense_flow_jacobian(yb, cidx, v)))
    hess = np.zeros((jg.shape[1],) * 2)
    hess[: 2 * n, : 2 * n] = dense_bus_injection_hessian(
        case.ybus, v, lam[:n], lam[n:]
    ) + dense_sq_hessian(yb, cidx, v, mu)
    pg = np.arange(2 * n, 2 * n + ng)
    hess[pg, pg] += sigma * 2 * np.array([g.cost.a for g in case.generators]) * case.base_mva**2
    return jg, jh, hess


# ---------------------------------------------------------------------------
# Brute-force 3-bus OPF
# ---------------------------------------------------------------------------


def brute_force_opf_3bus(case, step: float = 1e-3):
    """Grid-search optimum of a 3-bus case: slack gen at bus 1, one gen at bus 2.

    Scans (p_g2, v2) on a uniform grid at the given per-unit resolution,
    solving the remaining power-flow unknowns (th2, th3, v3) by a vectorized
    Newton iteration with finite-difference Jacobians, then filters by all
    operating limits and minimizes total cost.  Returns (cost, p_g2_pu, v2).
    """
    assert len(case.buses) == 3 and len(case.generators) == 2
    g1, g2 = case.generators
    assert g1.bus == case.buses[0].id and g2.bus == case.buses[1].id
    base = case.base_mva
    y = stamp_ybus(case)
    v1 = 0.5 * (case.buses[0].v_min + case.buses[0].v_max)
    sd = np.array([complex(b.p_d, b.q_d) for b in case.buses]) / base

    p2 = np.arange(g2.p_min / base, g2.p_max / base + step / 2, step)
    v2 = np.arange(case.buses[1].v_min, case.buses[1].v_max + step / 2, step)
    p2g, v2g = np.meshgrid(p2, v2, indexing="ij")
    p2f, v2f = p2g.ravel(), v2g.ravel()
    m = len(p2f)

    target = np.stack(
        [p2f - sd[1].real, np.full(m, -sd[2].real), np.full(m, -sd[2].imag)], axis=1
    )

    def residual(u):
        vv = np.empty((m, 3), dtype=complex)
        vv[:, 0] = v1
        vv[:, 1] = v2f * np.exp(1j * u[:, 0])
        vv[:, 2] = u[:, 2] * np.exp(1j * u[:, 1])
        s = vv * np.conj(vv @ y.T)
        return np.stack([s[:, 1].real, s[:, 2].real, s[:, 2].imag], axis=1) - target, s

    u = np.zeros((m, 3))
    u[:, 2] = 1.0
    ok = np.zeros(m, dtype=bool)
    h = 1e-7
    f, _ = residual(u)
    for _ in range(40):
        norm = np.max(np.abs(f), axis=1)
        ok = norm < 1e-10
        if ok.all():
            break
        jac = np.empty((m, 3, 3))
        for k in range(3):
            up = u.copy()
            up[:, k] += h
            um = u.copy()
            um[:, k] -= h
            jac[:, :, k] = (residual(up)[0] - residual(um)[0]) / (2 * h)
        # freeze diverged or singular grid points; they stay non-converged
        with np.errstate(invalid="ignore"):
            bad = ~np.isfinite(jac).all(axis=(1, 2)) | ~np.isfinite(f).all(axis=1)
            det = np.linalg.det(np.where(bad[:, None, None], np.eye(3), jac))
            bad |= np.abs(det) < 1e-300
        jac[bad] = np.eye(3)
        rhs = np.where(bad[:, None], 0.0, f)
        du = np.linalg.solve(jac, rhs[:, :, None])[:, :, 0]
        u = u - du
        f, _ = residual(u)
    _, s = residual(u)
    with np.errstate(invalid="ignore"):
        ok &= np.all(np.isfinite(u), axis=1)

    # recovered dispatch at every converged grid point
    pg1 = s[:, 0].real + sd[0].real
    qg1 = s[:, 0].imag + sd[0].imag
    qg2 = s[:, 1].imag + sd[1].imag
    v3 = u[:, 2]

    feas = ok.copy()
    feas &= (pg1 * base >= g1.p_min - 1e-9) & (pg1 * base <= g1.p_max + 1e-9)
    feas &= (qg1 * base >= g1.q_min - 1e-9) & (qg1 * base <= g1.q_max + 1e-9)
    feas &= (qg2 * base >= g2.q_min - 1e-9) & (qg2 * base <= g2.q_max + 1e-9)
    feas &= (v3 >= case.buses[2].v_min - 1e-12) & (v3 <= case.buses[2].v_max + 1e-12)

    # branch loadings at both ends
    vv = np.empty((m, 3), dtype=complex)
    vv[:, 0] = v1
    vv[:, 1] = v2f * np.exp(1j * u[:, 0])
    vv[:, 2] = v3 * np.exp(1j * u[:, 1])
    idx = {b.id: i for i, b in enumerate(case.buses)}
    for br in case.branches:
        if not br.status or br.s_max <= 0:
            continue
        fi, ti = idx[br.from_bus], idx[br.to_bus]
        ys = 1.0 / complex(br.r, br.x)
        bc = 1j * br.b_sh / 2.0
        sf = vv[:, fi] * np.conj(ys * (vv[:, fi] - vv[:, ti]) + bc * vv[:, fi])
        st = vv[:, ti] * np.conj(ys * (vv[:, ti] - vv[:, fi]) + bc * vv[:, ti])
        lim = br.s_max / base
        feas &= (np.abs(sf) <= lim + 1e-9) & (np.abs(st) <= lim + 1e-9)

    if not feas.any():
        raise RuntimeError("no feasible grid point")
    cost = g1.cost(pg1 * base) + g2.cost(p2f * base)
    cost[~feas] = np.inf
    k = int(np.argmin(cost))
    return float(cost[k]), float(p2f[k]), float(v2f[k])


# ---------------------------------------------------------------------------
# Interior-point Newton system, as one dense matrix
# ---------------------------------------------------------------------------


def dense(at, values, shape) -> np.ndarray:
    """The dense matrix of values on a COO pattern, repeated entries summed."""
    out = np.zeros(shape)
    np.add.at(out, (np.asarray(at[0], dtype=int), np.asarray(at[1], dtype=int)), values)
    return out


def dense_jh(problem, jh, n_nonlinear: int) -> np.ndarray:
    """Every inequality row's dense Jacobian: the inequalities rows, from their
    values jh, over the linear rows."""
    return np.vstack(
        [
            dense(problem.ineq_at, jh, (n_nonlinear, problem.n)),
            dense(problem.lin_at, problem.lin_val, (len(problem.b_lin), problem.n)),
        ]
    )


def dense_derivatives(problem, x):
    """(g, dense Jg, h, dense Jh) at x, h and Jh over every inequality row.

    Each Jacobian the callbacks return must be 1-D, one value per entry of
    its pattern."""
    g, jg = problem.eq(x)
    h, jh = problem.nonlinear_ineq(x)
    assert jg.shape == problem.eq_at[0].shape and jh.shape == problem.ineq_at[0].shape
    jg_dense = dense(problem.eq_at, jg, (len(g), problem.n))
    return g, jg_dense, problem.ineq(x)[0], dense_jh(problem, jh, len(h))


def dense_hessian(problem, x, sigma, lam, mu) -> np.ndarray:
    """lag_hess at x, dense; its values must be 1-D, one per entry of hess_at."""
    values = problem.lag_hess(x, sigma, lam, mu)
    assert values.shape == problem.hess_at[0].shape
    return dense(problem.hess_at, values, (problem.n, problem.n))


def dense_form_args(problem, neq, hess, jg, jh, w, d_box):
    """KktBlocks.form's arguments with H, Jg and Jh (every inequality row) dense."""
    return [
        dense(problem.hess_at, hess, (problem.n, problem.n)),
        dense(problem.eq_at, jg, (neq, problem.n)),
        dense_jh(problem, jh, len(w) - len(problem.b_lin)),
        np.array(w),
        np.array(d_box),
    ]


def dense_kkt_step(problem, hess, jg, jh, w, d_box, r_x, r_g, reg):
    """The Newton system of one interior-point iteration, formed and solved whole.

    K = [[M + reg I, Jg^T], [Jg, -reg I]] over the columns with lb != ub and
    every equality row, with M = H + Jh^T diag(w) Jh (Jh over every
    inequality row) plus d_box on the diagonal.  Returns (K, rhs, K^-1 rhs,
    free columns), rhs = (r_x on the free columns, r_g).  K^-1 rhs is the
    LU solve refined twice on residuals taken in extended precision: late
    iterates reach cond(K) ~ 1e10, where the plain solve alone can be 1e-12
    off.
    """
    fc = np.flatnonzero(problem.lb != problem.ub)
    m = hess + (jh.T * w) @ jh
    m[np.diag_indices(len(m))] += d_box + reg
    jf = jg[:, fc]
    k = np.block([[m[np.ix_(fc, fc)], jf.T], [jf, -reg * np.eye(len(jg))]])
    rhs = np.concatenate([r_x[fc], r_g])
    x = np.linalg.solve(k, rhs)
    k_ext, rhs_ext = k.astype(np.longdouble), rhs.astype(np.longdouble)
    for _ in range(2):
        x = x + np.linalg.solve(k, (rhs_ext - k_ext @ x).astype(float))
    return k, rhs, x, fc


def newton_errors(rec) -> tuple[float, float]:
    """Relative residual ||K x - r|| / ||r|| of a recorded step x, and its
    relative distance from the refined dense solve of the same system."""
    args = (*rec["form"], rec["r_x"], rec["r_g"], rec["reg"])
    k, rhs, ref, fc = dense_kkt_step(rec["problem"], *args)
    x = np.concatenate([rec["dx"][fc], rec["dlam"]])
    res = np.linalg.norm(k @ x - rhs) / np.linalg.norm(rhs)
    return float(res), float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


# ---------------------------------------------------------------------------
# First-order optimality
# ---------------------------------------------------------------------------


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


def kkt_report(problem, sol) -> KktReport:
    """First-order optimality residuals of a solution, from dense derivatives.

    The bound rows are built from box_bounds exactly as the solver saw them
    and weighted by sol.mu_box, so an optimal solve reports residuals at the
    solver's own tolerance.  A pinned column carries a free multiplier, so
    stationarity skips it, and its distance from the bound counts as an
    equality residual.
    """
    pinned, col, sign, cap = box_bounds(problem)
    x = sol.x
    _, df = problem.objective(x)
    g, jg, h, jh = dense_derivatives(problem, x)
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


# ---------------------------------------------------------------------------
# Max-aggregator forward pass
# ---------------------------------------------------------------------------


def nn_forward(model, x):
    """(f, y) for one point or a batch: f = max(W x + b), y = sigmoid(f)."""
    o = np.atleast_2d(x) @ model.w.T
    o += model.b
    f = o.max(axis=1)
    with np.errstate(over="ignore"):  # exp(-f) -> inf gives y = 0, its limit
        y = 1.0 / (1.0 + np.exp(-f))
    if np.ndim(x) == 1:
        return float(f[0]), float(y[0])
    return f, y


def reference_train_fr(x, label, n_h, w_10, w_01, cfg):
    """(W, b, val_loss) of the max-aggregator trained in two plain steps.

    The same standardization, validation split, restarts, cosine schedule
    and early stopping as ``train_fr``, with a separate Adam update of W and
    of b, a forward pass formed as x W^T and then + b over the whole batch,
    and gradients summed by np.add.at.
    """
    labels = np.asarray(label, dtype=float)
    rng = np.random.default_rng(cfg.seed)
    mu, sd = x.mean(axis=0), x.std(axis=0)
    sd[sd == 0] = 1.0
    z = (x - mu) / sd
    n_val = max(1, int(round(len(z) * cfg.val_frac)))
    perm = rng.permutation(len(z))
    z_val, y_val = z[perm[:n_val]], labels[perm[:n_val]]
    z_fit, y_fit = z[perm[n_val:]], labels[perm[n_val:]]

    def loss_grad(w, b, zb, yb):
        o = zb @ w.T
        o = o + b
        k = np.argmax(o, axis=1)
        f = np.clip(o[np.arange(len(o)), k], -30.0, 30.0)
        loss = float(
            np.sum(w_10 * yb * np.logaddexp(0.0, -f) + w_01 * (1.0 - yb) * np.logaddexp(0.0, f))
        )
        sig = 1.0 / (1.0 + np.exp(-f))
        dldf = w_10 * yb * (sig - 1.0) + w_01 * (1.0 - yb) * sig
        gw = np.zeros_like(w)
        np.add.at(gw, k, dldf[:, None] * zb)
        gb = np.zeros_like(b)
        np.add.at(gb, k, dldf)
        return loss, gw, gb

    best = (np.inf, None, None)
    for _ in range(cfg.restarts):
        w = rng.normal(0.0, 0.1, size=(n_h, z.shape[1]))
        b = np.full(n_h, -0.5)
        m_w, v_w, m_b, v_b = np.zeros_like(w), np.zeros_like(w), np.zeros_like(b), np.zeros_like(b)
        run, stall, step = (np.inf, w.copy(), b.copy()), 0, 0
        for epoch in range(1, cfg.epochs + 1):
            lr = cfg.lr
            if cfg.lr_min > 0:
                phase = (epoch - 1) / max(1, cfg.epochs - 1)
                lr = cfg.lr_min + 0.5 * (cfg.lr - cfg.lr_min) * (1 + np.cos(np.pi * phase))
            order = rng.permutation(len(z_fit))
            for lo in range(0, len(z_fit), cfg.batch):
                idx = order[lo : lo + cfg.batch]
                _, gw, gb = loss_grad(w, b, z_fit[idx], y_fit[idx])
                gw, gb = gw / len(idx), gb / len(idx)
                step += 1
                m_w = 0.9 * m_w + (1 - 0.9) * gw
                v_w = 0.999 * v_w + (1 - 0.999) * gw**2
                m_b = 0.9 * m_b + (1 - 0.9) * gb
                v_b = 0.999 * v_b + (1 - 0.999) * gb**2
                c1, c2 = 1 - 0.9**step, 1 - 0.999**step
                w = w - lr * (m_w / c1) / (np.sqrt(v_w / c2) + 1e-8)
                b = b - lr * (m_b / c1) / (np.sqrt(v_b / c2) + 1e-8)
            val_loss = loss_grad(w, b, z_val, y_val)[0] / len(z_val)
            if val_loss < run[0] - 1e-12:
                run, stall = (val_loss, w.copy(), b.copy()), 0
            else:
                stall += 1
                if stall >= cfg.patience:
                    break
        if run[0] < best[0]:
            best = run
    val_loss, w, b = best
    w_raw = w / sd[None, :]
    return w_raw, b - w_raw @ mu, val_loss


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def fd_jacobian(fun, x, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a vector-valued function."""
    x = np.asarray(x, dtype=float)
    cols = []
    for k in range(len(x)):
        xp = x.copy()
        xp[k] += h
        xm = x.copy()
        xm[k] -= h
        cols.append((np.asarray(fun(xp)) - np.asarray(fun(xm))) / (2 * h))
    return np.stack(cols, axis=1)


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise difference scaled by the magnitude of the reference."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b))))
