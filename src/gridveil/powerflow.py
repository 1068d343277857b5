"""Newton-Raphson AC power flow and the distribution-side response map.

The solver is dense and polar, sized for networks of a few hundred buses.
Any number of buses may be declared fixed (voltage magnitude and angle held),
which is how a distribution case is driven from its coupling points: every
PCC bus becomes a voltage source at the sampled magnitude and zero angle.
``ds_response`` labels one such operating point; ``ds_response_batch`` runs
the same Newton iterates for any number of points, in fixed blocks with one
stacked solve per iteration, after MATPOWER's vectorised ``newtonpf``/``dSbus_dV``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .netmodel import NetworkCase

# Rows per Newton block of ``ds_response_batch``.  A block's iterations share
# one mismatch product and one stacked solve, so a larger block spreads the
# Python overhead over more rows, but its (rows, 2m, 2m) Jacobian stack grows
# with it.  In one 30 s ds-labelling benchmark run each, 8-, 16- and 32-row
# blocks took 164, 142 and 144 ms per operation and raised peak RSS over the
# per-row labeller (43.4 MB) by 1.6 %, 4.0 % and 8.2 %.  The size also fixes
# the results: a row's products round with the rows of its block.
BLOCK_ROWS = 16

# Newton stop on the largest bus mismatch, p.u., of the scalar flow and the
# batched labeller; a stop at 1e-8 could leave a PCC flow about 2e-6 MW off.
NEWTON_TOL = 1e-9


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
    max_v_err: float = 0.0
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
        rep.max_v_err = max(rep.max_v_err, err)
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
    if len(case.pcc_map) != 1:
        raise ValueError("ds_response expects a single-DS case")
    couplings = next(iter(case.pcc_map.values()))
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


def _newton_steps(jac: np.ndarray, f: np.ndarray):
    """Stacked Newton steps; a singular row gets NaN steps and ok False."""
    try:
        return np.linalg.solve(jac, f[..., None])[..., 0], np.ones(len(f), dtype=bool)
    except np.linalg.LinAlgError:
        dx = np.full_like(f, np.nan)
        ok = np.ones(len(f), dtype=bool)
        for k in range(len(f)):
            try:
                dx[k] = np.linalg.solve(jac[k], f[k])
            except np.linalg.LinAlgError:
                ok[k] = False
        return dx, ok


def ds_response_batch(case: NetworkCase, x: np.ndarray):
    """``ds_response`` for any number of operating points.

    Row k of x is (v_pcc_1..r, p_dg_1..n, q_dg_1..n).  The rows are solved in
    consecutive blocks of ``BLOCK_ROWS``, cut from the first row.  In a block
    every row runs the same polar Newton iterates as ``newton_pf`` from a flat
    start, with its tol ``NEWTON_TOL`` and max_iter 30 as ``ds_response`` uses
    them, but the block shares one mismatch product and one stacked solve per
    iteration; a row stops at its own outcome (converged, non-finite
    mismatch, singular Jacobian, or max_iter).  Limits are checked as in
    ``check_limits``.

    Returns (label, p_pcc, q_pcc): labels 0/1 and export flows in MW/MVAr,
    NaN on every infeasible row.
    """
    tol, max_iter = NEWTON_TOL, 30
    if len(case.pcc_map) != 1:
        raise ValueError("ds_response_batch expects a single-DS case")
    couplings = next(iter(case.pcc_map.values()))
    fixed = np.array([case.bus_index(ds_bus) for ds_bus, _ in couplings])
    r, n_gen = len(fixed), case.n_gen
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != r + 2 * n_gen:
        raise ValueError(f"expected rows of {r} PCC voltages and 2 x {n_gen} DG setpoints")

    # per call: the pattern (jr, jc) of Y_ff in free-bus positions with the
    # whole diagonal included, and its flat positions in J11, J12, J21, J22
    ybus, base, tab = case.ybus, case.base_mva, case.branch_table
    fr = np.setdiff1d(np.arange(case.n_bus), fixed)
    m = len(fr)
    y_ff = ybus[np.ix_(fr, fr)]
    jr, jc = np.nonzero((y_ff != 0) | np.eye(m, dtype=bool))
    y_nz, dg, nnz = np.conj(y_ff[jr, jc]), np.flatnonzero(jr == jc), len(jr)
    jac_pos = np.concatenate([(jr + i * m) * 2 * m + jc + j * m for i in (0, 1) for j in (0, 1)])
    s_load = np.array([complex(-b.p_d, -b.q_d) for b in case.buses])
    gen_inc = case.gen_incidence().T
    v_min = np.array([b.v_min for b in case.buses])
    v_max = np.array([b.v_max for b in case.buses])
    s_max = tab.s_max[tab.rated]
    # one Jacobian buffer per call: each iteration fills the pattern of a
    # leading slice, and the entries off the pattern stay zero
    jac_buf = np.zeros((min(len(x), BLOCK_ROWS), 4 * m * m))

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
            # the free x free blocks of dSbus_dV on the pattern of Y_ff, all
            # active rows at once: with A = diag(V) conj(Ybus) diag(conj V),
            # dS/dVa = j (diag(V conj I) - A), dS/dVm = A diag(1/|V|) + diag(conj(I) V/|V|)
            vf, i_f = v[active][:, fr], ibus[active][:, fr]
            vmag = np.abs(vf)
            a = vf[:, jr] * y_nz * np.conj(vf[:, jc])
            a_vm = a / vmag[:, jc]
            d_va = vf * np.conj(i_f)
            d_vm = np.conj(i_f) * vf / vmag
            vals = np.concatenate([a.imag, a_vm.real, -a.real, a_vm.imag], axis=1)
            vals[:, dg] -= d_va.imag
            vals[:, nnz + dg] += d_vm.real
            vals[:, 2 * nnz + dg] += d_va.real
            vals[:, 3 * nnz + dg] += d_vm.imag
            jac = jac_buf[: len(active)]
            jac[:, jac_pos] = vals

            dx, ok = _newton_steps(jac.reshape(-1, 2 * m, 2 * m), f[active])
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
