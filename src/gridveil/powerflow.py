"""Newton-Raphson AC power flow and the distribution-side response map.

``newton_pf`` is dense and polar, sized for networks of a few hundred buses.
Any number of buses may be declared fixed (voltage magnitude and angle held),
which is how a distribution case is driven from its coupling points: every
PCC bus becomes a voltage source at the sampled magnitude and zero angle.
``ds_response`` labels one such operating point; ``ds_response_batch`` runs
the same Newton iterates for any number of points, in fixed blocks, after
MATPOWER's vectorised ``newtonpf``/``dSbus_dV``.  Its Newton systems live on
the fixed pattern of the feeder's Y_ff, and each iteration factors them all
at once with a sparse LU in minimum-degree order (``NewtonPattern``; Tinney &
Walker, Proc. IEEE 55(11), 1967), whose symbolic part is built once per case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .netmodel import NetworkCase

# Rows per Newton block of ``ds_response_batch``.  A block's iterations share
# one mismatch product and one sparse LU whose NumPy calls each span every row
# of the block, so a larger block spreads the Python overhead over more rows,
# but its work array and Jacobian temporaries grow with it (a ds2 call peaks
# at about 14 KB per row).  In two 30 s ds-labelling benchmark runs each
# (seed 1702, one BLAS thread), the former 16-row dense labeller took 107-111
# ms per operation at 44.4 MB peak RSS; 64-, 128- and 256-row blocks took
# 53-54, 42-43 and 39-43 ms and raised peak RSS by 1.9 %, 4.7 % and 9.0 %.
# The size also fixes the results: a row's products round with the rows of
# its block.
BLOCK_ROWS = 128

# Newton stop on the largest bus mismatch, p.u., of the scalar flow and the
# batched labeller; a stop at 1e-8 could leave a PCC flow about 2e-6 MW off.
NEWTON_TOL = 1e-9

# Schur-complement updates per NumPy call of ``NewtonPattern.solve``; a call
# holds four temporaries of (LU_CHUNK, rows) floats.  ds2's first level makes
# 300 updates; left whole, they raised a 10 s ds-labelling run's peak RSS
# from 46.4 to 47.3 MB.
LU_CHUNK = 64


def dSbus_dV(ybus: np.ndarray, v: np.ndarray):
    """Partials of the bus injections S(V) = V conj(Ybus V) in polar coordinates.

    Returns (dS/dVa, dS/dVm) as dense complex matrices.
    """
    ibus = ybus @ v
    vnorm = v / np.abs(v)
    a = v[:, None] * np.conj(ybus * v[None, :])
    ds_dva = 1j * (np.diag(v * np.conj(ibus)) - a)
    ds_dvm = v[:, None] * np.conj(ybus * vnorm[None, :]) + np.diag(np.conj(ibus) * vnorm)
    return ds_dva, ds_dvm


@dataclass
class PfResult:
    converged: bool
    v: np.ndarray  # complex bus voltages, p.u.
    iterations: int
    max_mismatch: float
    reason: str = ""  # "singular_jacobian" or "diverged" when not converged
    s_inj: np.ndarray | None = None  # net complex power into the network per bus, MVA


def newton_pf(
    case: NetworkCase,
    fixed: dict[int, complex] | None = None,
    pv: dict[int, float] | None = None,
    p_inj: dict[int, float] | None = None,
    q_inj: dict[int, float] | None = None,
    tol: float = NEWTON_TOL,
    max_iter: int = 30,
) -> PfResult:
    """Solve the power flow with Newton's method from a flat start.

    fixed: bus id -> complex voltage held at both magnitude and angle
           (defaults to 1+0j at every bus of kind slack or pcc).
    pv:    bus id -> magnitude held, angle free (defaults for kind pv).
    p_inj/q_inj: extra injections in MW/MVAr (generation positive), added on
           top of the negated bus demand.
    """
    n = case.n_bus
    ybus = case.ybus
    if fixed is None:
        fixed = {b.id: 1.0 + 0j for b in case.buses if b.kind in ("slack", "pcc")}
    if pv is None:
        pv = {b.id: 1.0 for b in case.buses if b.kind == "pv"}
    if not fixed:
        raise ValueError("power flow needs at least one fixed (slack) bus")

    s_spec = np.array(
        [complex(-b.p_d, -b.q_d) for b in case.buses], dtype=complex
    )
    for bid, p in (p_inj or {}).items():
        s_spec[case.bus_index(bid)] += p
    for bid, q in (q_inj or {}).items():
        s_spec[case.bus_index(bid)] += 1j * q
    s_spec /= case.base_mva

    vm = np.ones(n)
    va = np.zeros(n)
    ang_free = np.ones(n, dtype=bool)
    mag_free = np.ones(n, dtype=bool)
    for bid, vc in fixed.items():
        i = case.bus_index(bid)
        vm[i] = abs(vc)
        va[i] = np.angle(vc)
        ang_free[i] = mag_free[i] = False
    for bid, mag in pv.items():
        i = case.bus_index(bid)
        if not mag_free[i]:
            raise ValueError(f"bus {bid} is both fixed and pv")
        vm[i] = mag
        mag_free[i] = False

    def mismatch(v):
        ds = v * np.conj(ybus @ v) - s_spec
        return np.concatenate([ds.real[ang_free], ds.imag[mag_free]])

    v = vm * np.exp(1j * va)
    f = mismatch(v)
    norm = float(np.max(np.abs(f))) if f.size else 0.0
    it = 0
    while norm > tol and it < max_iter:
        ds_dva, ds_dvm = dSbus_dV(ybus, v)
        j11 = ds_dva[np.ix_(ang_free, ang_free)].real
        j12 = ds_dvm[np.ix_(ang_free, mag_free)].real
        j21 = ds_dva[np.ix_(mag_free, ang_free)].imag
        j22 = ds_dvm[np.ix_(mag_free, mag_free)].imag
        jac = np.block([[j11, j12], [j21, j22]])
        try:
            dx = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError:
            return PfResult(False, v, it, norm, reason="singular_jacobian")
        na = int(ang_free.sum())
        va[ang_free] -= dx[:na]
        vm[mag_free] -= dx[na:]
        v = vm * np.exp(1j * va)
        f = mismatch(v)
        norm = float(np.max(np.abs(f))) if f.size else 0.0
        it += 1
        if not np.isfinite(norm):
            return PfResult(False, v, it, float("inf"), reason="diverged")

    s_inj = v * np.conj(ybus @ v) * case.base_mva
    return PfResult(norm <= tol, v, it, norm, s_inj=s_inj)


def line_flows(case: NetworkCase, v: np.ndarray):
    """Complex power entering each branch at its from and to ends, in MVA."""
    sf, st = case.branch_table.end_flows(v)
    return sf * case.base_mva, st * case.base_mva


@dataclass
class LimitReport:
    ok: bool
    v_violations: list = field(default_factory=list)  # (bus_id, vm, lo, hi)
    flow_violations: list = field(default_factory=list)  # (branch_idx, s_end_max, s_max)
    max_flow_ratio: float = 0.0


def check_limits(case: NetworkCase, v: np.ndarray, tol: float = 1e-9) -> LimitReport:
    """Check bus voltage bands and branch MVA ratings for a solved voltage profile.

    Ratings of 0 and open branches are ignored.
    """
    rep = LimitReport(ok=True)
    vm = np.abs(v)
    for i, b in enumerate(case.buses):
        lo, hi = b.v_min, b.v_max
        err = max(lo - vm[i], vm[i] - hi)
        if err > tol:
            rep.ok = False
            rep.v_violations.append((b.id, float(vm[i]), lo, hi))
    sf, st = line_flows(case, v)
    for i, br in enumerate(case.branches):
        if not br.status or br.s_max <= 0:
            continue
        s_end = max(abs(sf[i]), abs(st[i]))
        ratio = s_end / br.s_max
        rep.max_flow_ratio = max(rep.max_flow_ratio, ratio)
        if s_end - br.s_max > tol * max(1.0, br.s_max):
            rep.ok = False
            rep.flow_violations.append((i, float(s_end), br.s_max))
    return rep


@dataclass
class DsResponse:
    feasible: bool
    label: int  # 0 feasible, 1 infeasible
    p_pcc: np.ndarray  # MW toward the transmission side (export positive)
    q_pcc: np.ndarray
    converged: bool
    v: np.ndarray | None = None
    report: LimitReport | None = None


def ds_response(
    case: NetworkCase,
    v_pcc: np.ndarray,
    p_dg: np.ndarray,
    q_dg: np.ndarray,
) -> DsResponse:
    """Operating-point response of one distribution case.

    The case's PCC buses (in pcc_map order) are held at the given magnitudes
    with zero angle, DGs inject (p_dg, q_dg) MW/MVAr in generator order, and
    the point is feasible iff the flow converges and every voltage band and
    line rating holds.  PCC flows are reported in the export orientation, so
    a distribution system drawing power has negative p_pcc.
    """
    _, couplings = case.single_ds()
    if len(v_pcc) != len(couplings):
        raise ValueError(f"expected {len(couplings)} PCC voltages, got {len(v_pcc)}")
    if len(p_dg) != case.n_gen or len(q_dg) != case.n_gen:
        raise ValueError("p_dg/q_dg must match the number of generators")

    fixed = {ds_bus: complex(v_pcc[u]) for u, (ds_bus, _) in enumerate(couplings)}
    p_inj: dict[int, float] = {}
    q_inj: dict[int, float] = {}
    for g, gen in enumerate(case.generators):
        p_inj[gen.bus] = p_inj.get(gen.bus, 0.0) + float(p_dg[g])
        q_inj[gen.bus] = q_inj.get(gen.bus, 0.0) + float(q_dg[g])

    res = newton_pf(case, fixed=fixed, pv={}, p_inj=p_inj, q_inj=q_inj)
    nan = np.full(len(couplings), np.nan)
    if not res.converged:
        return DsResponse(False, 1, nan, nan.copy(), False)

    rep = check_limits(case, res.v)
    p_pcc = np.empty(len(couplings))
    q_pcc = np.empty(len(couplings))
    for u, (ds_bus, _) in enumerate(couplings):
        i = case.bus_index(ds_bus)
        b = case.buses[i]
        # s_inj at a fixed bus is the import supplied from outside the case
        p_pcc[u] = -(res.s_inj[i].real + b.p_d)
        q_pcc[u] = -(res.s_inj[i].imag + b.q_d)
    return DsResponse(rep.ok, 0 if rep.ok else 1, p_pcc, q_pcc, True, res.v, rep)


def _min_degree(pattern: np.ndarray):
    """Minimum-degree elimination of a symmetric pattern (Tinney & Walker).

    Ties go to the node of the lower elimination-tree level, then to the
    lower index, which keeps the tree of a radial feeder shallow.  Returns the
    elimination order, each node's level (0 for a leaf of the tree, else one
    above its highest child) and the pattern with its fill-in.
    """
    m = len(pattern)
    adj = [set(np.flatnonzero(row)) - {i} for i, row in enumerate(pattern)]
    level = [0] * m
    filled = pattern.copy()
    left, order = set(range(m)), []
    while left:
        k = min(left, key=lambda i: (len(adj[i]), level[i], i))
        left.remove(k)
        order.append(k)
        nb = sorted(adj[k])
        filled[np.ix_(nb, nb)] = True
        for i in nb:
            adj[i] |= adj[k]
            adj[i] -= {i, k}
            level[i] = max(level[i], level[k] + 1)
    return order, np.array(level), filled


class NewtonPattern:
    """The Newton system of a single-DS case on its fixed pattern, with the
    symbolic part of a sparse LU of it; built once per case and kept as
    ``NetworkCase.newton_pattern``.

    The unknowns are the angles, then the magnitudes, of the free buses
    ``fr`` (all but the PCCs).  J11, J12, J21 and J22 each live on the
    pattern (jr, jc) of Y_ff with the whole diagonal.  The systems of a block
    of rows share one work array ``lu`` of shape (n_slots, rows), one column
    per row: slots [0, 4 nnz) hold J11, J12, J21 and J22 in (jr, jc) order,
    then come the fill-in and one pad slot, all zero before a factorization,
    and from ``rhs`` on the right-hand side, which the solve overwrites with
    the step.  The LU runs without pivoting, on buses in minimum-degree order,
    angle before magnitude.  Buses of one elimination-tree level do not
    depend on each other, so each level is eliminated with a fixed number of
    NumPy calls over all its pivots and all rows; the right-hand side rides
    along as an extra column, and back substitution runs level by level.
    """

    def __init__(self, case: NetworkCase):
        couplings = next(iter(case.pcc_map.values()))
        self.fixed = np.array([case.bus_index(ds_bus) for ds_bus, _ in couplings])
        self.fr = fr = np.setdiff1d(np.arange(case.n_bus), self.fixed)
        m = self.m = len(fr)
        y_ff = case.ybus[np.ix_(fr, fr)]
        pattern = (y_ff != 0) | np.eye(m, dtype=bool)
        self.jr, self.jc = jr, jc = np.nonzero(pattern)
        self.y_nz = np.conj(y_ff[jr, jc])[:, None]
        self.dg, nnz = np.flatnonzero(jr == jc), len(jr)
        self.nnz = nnz
        order, level, filled = _min_degree(pattern)

        # slot of every entry (row, col) of the filled 2m x 2m pattern, and
        # of each unknown's right-hand side in the extra column 2m
        n = 2 * m
        slot = np.full((n, n + 1), -1)
        for b, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            slot[jr + i * m, jc + j * m] = b * nnz + np.arange(nnz)
        fill = np.kron(np.ones((2, 2), dtype=bool), filled) & (slot[:, :n] < 0)
        slot[np.nonzero(fill)] = 4 * nnz + np.arange(fill.sum())
        self.pad = 4 * nnz + int(fill.sum())
        self.rhs = self.pad + 1
        self.n_slots = self.rhs + n
        slot[:, n] = self.rhs + np.arange(n)

        rank = np.empty(n, dtype=int)
        rank[order] = 2 * np.arange(m)
        rank[m + np.array(order)] = 2 * np.arange(m) + 1
        steps = []
        for lev in range(level.max() + 1):
            buses = np.flatnonzero(level == lev)
            steps += [buses, m + buses]  # angles, then magnitudes

        def later(p):
            return [c for c in range(n) if rank[c] > rank[p] and slot[p, c] >= 0]

        self.factor_steps = []
        for pivots in steps:
            l_pos, l_piv, updates = [], [], []
            for p in pivots:
                below = later(p)
                l_pos += [slot[r, p] for r in below]
                l_piv += [slot[p, p]] * len(below)
                updates += [(slot[r, c], slot[r, p], slot[p, c]) for r in below for c in below + [n]]
            # pivots of one step may update the same entry: one round per repeat
            seen: dict[int, int] = {}
            rounds: list[list] = []
            for t, lo, up in updates:
                k = seen[t] = seen.get(t, -1) + 1
                if k == len(rounds):
                    rounds.append([])
                rounds[k].append((t, lo, up))
            self.factor_steps.append(
                (
                    np.array(l_pos, dtype=np.intp),
                    np.array(l_piv, dtype=np.intp),
                    [
                        tuple(map(np.array, zip(*rd[i : i + LU_CHUNK])))
                        for rd in rounds
                        for i in range(0, len(rd), LU_CHUNK)
                    ],
                )
            )
        self.back_steps = []
        for pivots in reversed(steps):
            rows = [[(slot[p, c], slot[c, n]) for c in later(p)] for p in pivots]
            width = max(1, *map(len, rows))
            pairs = np.array([r + [(self.pad, self.pad)] * (width - len(r)) for r in rows])
            pivots = np.asarray(pivots)
            self.back_steps.append((slot[pivots, n], slot[pivots, pivots], pairs[..., 0], pairs[..., 1]))

    def load(self, vf: np.ndarray, i_f: np.ndarray, f: np.ndarray, lu: np.ndarray) -> None:
        """Write the Newton systems at free-bus voltages vf (rows, m), their
        currents i_f and mismatches f (rows, 2m) into the columns of lu.

        The free x free blocks of dSbus_dV on the pattern of Y_ff: with
        A = diag(V) conj(Ybus) diag(conj V), dS/dVa = j (diag(V conj I) - A)
        and dS/dVm = A diag(1/|V|) + diag(conj(I) V/|V|).
        """
        nnz, dg = self.nnz, self.dg
        vt, it = vf.T, i_f.T
        vmag = np.abs(vt)
        a = vt[self.jr]
        a *= self.y_nz
        a *= np.conjugate(vt[self.jc])
        lu[:nnz] = a.imag
        np.negative(a.real, out=lu[2 * nnz : 3 * nnz])
        a /= vmag[self.jc]
        lu[nnz : 2 * nnz] = a.real
        lu[3 * nnz : 4 * nnz] = a.imag
        d_va = vt * np.conj(it)
        d_vm = np.conj(it) * vt / vmag
        lu[dg] -= d_va.imag
        lu[nnz + dg] += d_vm.real
        lu[2 * nnz + dg] += d_va.real
        lu[3 * nnz + dg] += d_vm.imag
        lu[4 * nnz : self.rhs] = 0.0
        lu[self.rhs :] = f.T

    def solve(self, lu: np.ndarray) -> np.ndarray:
        """Factor the systems of lu in place and return their steps, (2m, rows).

        A zero or tiny pivot leaves non-finite entries in its row's column
        only; no other column is touched.
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for l_pos, l_piv, rounds in self.factor_steps:
                lu[l_pos] /= lu[l_piv]
                for t, lo, up in rounds:
                    lu[t] -= lu[lo] * lu[up]
            for x, d, u, xu in self.back_steps:
                lu[x] = (lu[x] - (lu[u] * lu[xu]).sum(axis=1)) / lu[d]
        return lu[self.rhs :]


def ds_response_batch(case: NetworkCase, x: np.ndarray):
    """``ds_response`` for any number of operating points.

    Row k of x is (v_pcc_1..r, p_dg_1..n, q_dg_1..n).  The rows are solved in
    consecutive blocks of ``BLOCK_ROWS``, cut from the first row.  In a block
    every row runs the same polar Newton iterates as ``newton_pf`` from a flat
    start, with its tol ``NEWTON_TOL`` and max_iter 30 as ``ds_response`` uses
    them, but the block shares one mismatch product and one sparse LU
    (``NewtonPattern``) per iteration; a row stops at its own outcome
    (converged, non-finite mismatch, non-finite step, or max_iter).  Limits
    are checked as in ``check_limits``.

    Returns (label, p_pcc, q_pcc): labels 0/1 and export flows in MW/MVAr,
    NaN on every infeasible row.
    """
    tol, max_iter = NEWTON_TOL, 30
    r, n_gen = len(case.single_ds()[1]), case.n_gen
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != r + 2 * n_gen:
        raise ValueError(f"expected rows of {r} PCC voltages and 2 x {n_gen} DG setpoints")

    pat = case.newton_pattern
    fixed, fr, m = pat.fixed, pat.fr, pat.m
    ybus, base, tab = case.ybus, case.base_mva, case.branch_table
    s_load = np.array([complex(-b.p_d, -b.q_d) for b in case.buses])
    gen_inc = case.gen_incidence().T
    v_min = np.array([b.v_min for b in case.buses])
    v_max = np.array([b.v_max for b in case.buses])
    s_max = tab.s_max[tab.rated]
    # one work array per call: each iteration's systems fill a leading slice
    work = np.empty(pat.n_slots * min(len(x), BLOCK_ROWS))

    def evaluate(rows):
        v = vm[rows] * np.exp(1j * va[rows])
        ibus = v @ ybus.T
        ds = (v * np.conj(ibus) - s_spec[rows])[:, fr]
        f = np.concatenate([ds.real, ds.imag], axis=1)
        return v, ibus, f, np.max(np.abs(f), axis=1, initial=0.0)

    label = np.empty(len(x), dtype=np.int8)
    p_pcc = np.empty((len(x), r))
    q_pcc = np.empty((len(x), r))
    for lo in range(0, len(x), BLOCK_ROWS):
        blk = slice(lo, lo + BLOCK_ROWS)
        xb = x[blk]
        s_spec = (s_load + (xb[:, r : r + n_gen] + 1j * xb[:, r + n_gen :]) @ gen_inc) / base
        v_fix = xb[:, :r].astype(complex)
        vm = np.ones((len(xb), case.n_bus))
        va = np.zeros((len(xb), case.n_bus))
        vm[:, fixed] = np.abs(v_fix)
        va[:, fixed] = np.angle(v_fix)

        v, ibus, f, norm = evaluate(slice(None))
        failed = ~np.isfinite(norm)
        active = np.flatnonzero(norm > tol)
        for _ in range(max_iter):
            if not active.size:
                break
            lu = work[: pat.n_slots * len(active)].reshape(pat.n_slots, -1)
            pat.load(v[np.ix_(active, fr)], ibus[np.ix_(active, fr)], f[active], lu)
            dx = pat.solve(lu).T
            ok = np.isfinite(dx).all(axis=1)
            failed[active[~ok]] = True
            active, dx = active[ok], dx[ok]
            va[active[:, None], fr] -= dx[:, :m]
            vm[active[:, None], fr] -= dx[:, m:]
            v[active], ibus[active], f[active], norm[active] = evaluate(active)
            diverged = ~np.isfinite(norm[active])
            failed[active[diverged]] = True
            active = active[~diverged & (norm[active] > tol)]

        ok = ~failed & (norm <= tol)
        vm_all = np.abs(v)
        ok &= np.all(np.maximum(v_min - vm_all, vm_all - v_max) <= 1e-9, axis=1)
        sf, st = tab.end_flows(v)
        s_end = np.maximum(np.abs(sf[:, tab.rated] * base), np.abs(st[:, tab.rated] * base))
        ok &= np.all(s_end - s_max <= 1e-9 * np.maximum(1.0, s_max), axis=1)

        # net injection at a fixed bus is the import supplied from outside the case
        s_inj = v[:, fixed] * np.conj(ibus[:, fixed]) * base
        label[blk] = np.where(ok, 0, 1)
        p_pcc[blk] = np.where(ok[:, None], -(s_inj.real - s_load[fixed].real), np.nan)
        q_pcc[blk] = np.where(ok[:, None], -(s_inj.imag - s_load[fixed].imag), np.nan)
    return label, p_pcc, q_pcc
