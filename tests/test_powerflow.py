import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridveil.netmodel import parse_case
from gridveil.powerflow import (
    BLOCK_ROWS,
    _newton_steps,
    check_limits,
    dSbus_dV,
    ds_response,
    ds_response_batch,
    line_flows,
    newton_pf,
)

from oracles import bfs_powerflow, fd_jacobian, stamp_ybus, two_bus_flow

TWO_BUS_LOADED = """
case two
base 100
bus 1 slack 0.9 1.1 -1.5707963267 1.5707963267 0 0
bus 2 pq 0.9 1.1 -1.5707963267 1.5707963267 30 10
branch 1 2 0.02 0.08 0 1 90 1
gen 1 0 100 -50 50 0 1 0
"""


def make_two_bus(p_mw=30.0, x=0.08):
    text = TWO_BUS_LOADED.replace("30 10", f"{p_mw} 10").replace("0.02 0.08", f"0.02 {x}")
    return parse_case(text)


# ---------------------------------------------------------------- newton_pf


def test_flat_case_is_solution():
    case = parse_case(TWO_BUS_LOADED.replace("30 10", "0 0"))
    res = newton_pf(case)
    assert res.converged
    assert np.allclose(res.v, 1.0 + 0j, atol=1e-12)


def test_newton_matches_sweep_on_radial_feeder(ds1):
    res = newton_pf(ds1, tol=1e-12)
    assert res.converged
    v_oracle = bfs_powerflow(ds1, v_root=1.0)
    assert np.max(np.abs(np.abs(res.v) - np.abs(v_oracle))) < 1e-8
    assert np.max(np.abs(res.v - v_oracle)) < 1e-8


def test_root_injection_covers_load_plus_losses(ds1):
    res = newton_pf(ds1, tol=1e-10)
    total_load = sum(b.p_d for b in ds1.buses)
    root = ds1.bus_index(next(iter(ds1.pcc_map.values()))[0][0])
    losses = float(np.sum(res.s_inj.real))
    assert losses > 0
    assert np.isclose(res.s_inj[root].real, total_load + losses, atol=1e-6)


def test_unsupportable_load_does_not_converge():
    case = make_two_bus(p_mw=5000.0, x=1.0)
    res = newton_pf(case)
    assert not res.converged
    assert res.reason in ("diverged", "") or res.max_mismatch > 1e-8


def test_balance_residual_via_independent_product(ds2):
    res = newton_pf(ds2, tol=1e-10)
    assert res.converged
    y = stamp_ybus(ds2)
    s = res.v * np.conj(y @ res.v)
    for i, b in enumerate(ds2.buses):
        if b.kind == "pq":
            assert abs(s[i] + complex(b.p_d, b.q_d) / ds2.base_mva) < 1e-9


def test_power_flow_jacobian_matches_fd(toy3):
    rng = np.random.default_rng(4)
    y = toy3.ybus
    n = 3
    for _ in range(5):
        vm = rng.uniform(0.95, 1.05, n)
        va = rng.uniform(-0.2, 0.2, n)
        v = vm * np.exp(1j * va)
        ds_dva, ds_dvm = dSbus_dV(y, v)

        def s_of(z):
            vv = z[n:] * np.exp(1j * z[:n])
            s = vv * np.conj(y @ vv)
            return np.concatenate([s.real, s.imag])

        jfd = fd_jacobian(s_of, np.concatenate([va, vm]), h=1e-7)
        mine = np.block(
            [[ds_dva.real, ds_dvm.real], [ds_dva.imag, ds_dvm.imag]]
        )
        assert np.max(np.abs(mine - jfd)) < 1e-6


# --------------------------------------------------------------- line_flows


def test_open_branch_zero_flow(ds1):
    res = newton_pf(ds1)
    sf, st = line_flows(ds1, res.v)
    for i, br in enumerate(ds1.branches):
        if not br.status:
            assert sf[i] == 0 and st[i] == 0


def test_two_bus_flow_analytic():
    case = make_two_bus()
    res = newton_pf(case, tol=1e-12)
    sf, st = line_flows(case, res.v)
    v1, v2 = np.abs(res.v)
    th1, th2 = np.angle(res.v)
    p, q = two_bus_flow(v1, th1, v2, th2, 0.02, 0.08)
    assert np.isclose(sf[0].real, p * case.base_mva, atol=1e-8)
    assert np.isclose(sf[0].imag, q * case.base_mva, atol=1e-8)
    p2, q2 = two_bus_flow(v2, th2, v1, th1, 0.02, 0.08)
    assert np.isclose(st[0].real, p2 * case.base_mva, atol=1e-8)


def test_flow_conservation_identity(ds2):
    res = newton_pf(ds2, tol=1e-10)
    sf, st = line_flows(ds2, res.v)
    losses = float(np.sum(sf.real + st.real))
    net_injection = float(np.sum(res.s_inj.real))
    assert np.isclose(losses, net_injection, atol=1e-6)


# ------------------------------------------------------------- check_limits


def test_check_limits_trivial_feasible():
    case = parse_case(TWO_BUS_LOADED.replace("30 10", "0 0"))
    rep = check_limits(case, np.ones(2, dtype=complex))
    assert rep.ok and not rep.v_violations and not rep.flow_violations


def test_check_limits_engineered_overload():
    case = make_two_bus()
    res = newton_pf(case, tol=1e-10)
    tight = parse_case(TWO_BUS_LOADED.replace("90 1", "10 1"))
    rep = check_limits(tight, res.v)
    assert not rep.ok
    assert any(idx == 0 for idx, _, _ in rep.flow_violations)
    assert rep.max_flow_ratio > 1.0


def _with_band(case, lo, hi):
    return dataclasses.replace(
        case, buses=[dataclasses.replace(b, v_min=lo, v_max=hi) for b in case.buses]
    )


def test_check_limits_band_override(ds1):
    res = newton_pf(ds1, tol=1e-10)
    assert check_limits(_with_band(ds1, 0.0, 2.0), res.v).ok
    assert not check_limits(_with_band(ds1, 0.9999, 1.0001), res.v).ok


@settings(max_examples=40, deadline=None)
@given(
    lo=st.floats(0.8, 0.99),
    hi=st.floats(1.01, 1.2),
    shrink=st.floats(0.0, 0.05),
)
def test_check_limits_monotone_in_band(lo, hi, shrink):
    # tightening the band can only move verdicts toward infeasible
    assume(lo + shrink < hi - shrink)  # a bus band cannot be empty
    case = make_two_bus()
    res = newton_pf(case, tol=1e-10)
    wide = check_limits(_with_band(case, lo, hi), res.v)
    narrow = check_limits(_with_band(case, lo + shrink, hi - shrink), res.v)
    if narrow.ok:
        assert wide.ok
    assert len(narrow.v_violations) >= len(wide.v_violations)


# -------------------------------------------------------------- ds_response


def test_ds_response_import_matches_sweep(ds1):
    n_dg = ds1.n_gen
    resp = ds_response(ds1, np.array([1.0]), np.zeros(n_dg), np.zeros(n_dg))
    assert resp.converged
    v_oracle = bfs_powerflow(ds1, v_root=1.0)
    root = ds1.bus_index(next(iter(ds1.pcc_map.values()))[0][0])
    s = v_oracle * np.conj(stamp_ybus(ds1) @ v_oracle) * ds1.base_mva
    total_load = sum(b.p_d for b in ds1.buses)
    losses = float(np.sum(s.real))
    # the feeder imports its whole demand through the single coupling point
    assert np.isclose(resp.p_pcc[0], -(total_load + losses), atol=1e-6)


def test_ds_response_balanced_dg_zeroes_import(ds1):
    n_dg = ds1.n_gen

    def pcc_flow(scale):
        resp = ds_response(
            ds1, np.array([1.0]), np.full(n_dg, scale), np.zeros(n_dg)
        )
        assert resp.converged
        return float(resp.p_pcc.sum())

    lo, hi = 0.0, 2.5
    assert pcc_flow(lo) < 0
    assert pcc_flow(hi) > 0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if pcc_flow(mid) < 0:
            lo = mid
        else:
            hi = mid
    assert abs(pcc_flow(0.5 * (lo + hi))) < 1e-6


def test_ds_response_voltage_cap_without_sources(ds1):
    resp = ds_response(ds1, np.array([1.05]), np.zeros(1), np.zeros(1))
    assert resp.converged
    assert np.max(np.abs(resp.v)) <= 1.05 + 1e-12


def test_ds_response_nonconvergence_is_infeasible(ds1):
    resp = ds_response(ds1, np.array([1.0]), np.array([1e5]), np.array([1e5]))
    assert not resp.converged
    assert resp.label == 1
    assert np.all(np.isnan(resp.p_pcc))


def test_ds_response_rejects_bad_shapes(ds1):
    with pytest.raises(ValueError):
        ds_response(ds1, np.array([1.0, 1.0]), np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError):
        ds_response(ds1, np.array([1.0]), np.zeros(3), np.zeros(3))


# -------------------------------------------------------- ds_response_batch


def test_ds_response_batch_matches_scalar_row_by_row(ds1):
    # rate the root branch below the feeder's full import, so the block holds
    # feasible rows, a voltage-band break, a rating break and a diverging row
    branches = list(ds1.branches)
    branches[0] = dataclasses.replace(branches[0], s_max=1.5)
    case = dataclasses.replace(ds1, branches=branches)
    x = np.array(
        [
            [1.00, 0.5, 0.0],
            [1.02, 1.0, 0.3],
            [1.00, 1e5, 1e5],  # cannot converge
            [1.05, 1.5, 1.0],  # overvoltage
            [1.00, 0.0, 0.0],  # root import above its rating
            [1.01, 1.2, -0.2],
        ]
    )
    label, p, q = ds_response_batch(case, x)
    refs = [ds_response(case, row[:1], row[1:2], row[2:]) for row in x]
    assert [r.label for r in refs] == list(label)
    assert not refs[2].converged
    assert refs[3].converged and refs[3].report.v_violations
    assert refs[4].converged and refs[4].report.flow_violations
    for i, ref in enumerate(refs):
        if ref.feasible:
            assert np.max(np.abs(ref.p_pcc - p[i])) <= 1e-10
            assert np.max(np.abs(ref.q_pcc - q[i])) <= 1e-10
        else:
            assert np.all(np.isnan(p[i])) and np.all(np.isnan(q[i]))
    assert set(label) == {0, 1}

    # the diverging row leaves the rest of its block alone
    keep = [0, 1, 3, 4, 5]
    label_k, p_k, q_k = ds_response_batch(case, x[keep])
    assert np.array_equal(label_k, label[keep])
    assert np.allclose(p_k, p[keep], rtol=0, atol=1e-10, equal_nan=True)
    assert np.allclose(q_k, q[keep], rtol=0, atol=1e-10, equal_nan=True)


def test_ds_response_batch_two_pccs_matches_scalar(ds2):
    rng = np.random.default_rng(3)
    x = np.column_stack(
        [rng.uniform(0.97, 1.03, (20, 2)), rng.uniform(0, 1.5, (20, 5)), rng.uniform(-0.5, 0.5, (20, 5))]
    )
    label, p, q = ds_response_batch(ds2, x)
    for i, row in enumerate(x):
        ref = ds_response(ds2, row[:2], row[2:7], row[7:])
        assert ref.label == label[i]
        if ref.feasible:
            assert np.max(np.abs(ref.p_pcc - p[i])) <= 1e-10
            assert np.max(np.abs(ref.q_pcc - q[i])) <= 1e-10


def test_ds_response_batch_solves_in_fixed_blocks(ds3):
    # the last block holds one row, which BLAS multiplies by its one-row kernel
    rng = np.random.default_rng(5)
    n = 2 * BLOCK_ROWS + 1
    x = np.column_stack(
        [rng.uniform(0.97, 1.03, (n, 2)), rng.uniform(0, 1.5, (n, 5)), rng.uniform(-0.5, 0.5, (n, 5))]
    )
    whole = ds_response_batch(ds3, x)
    parts = [ds_response_batch(ds3, x[lo : lo + BLOCK_ROWS]) for lo in range(0, n, BLOCK_ROWS)]
    assert [len(part[0]) for part in parts] == [BLOCK_ROWS, BLOCK_ROWS, 1]
    for got, want in zip(whole, map(np.concatenate, zip(*parts))):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert set(whole[0]) == {0, 1}


def test_ds_response_batch_rejects_bad_shapes(ds1):
    with pytest.raises(ValueError):
        ds_response_batch(ds1, np.ones((2, 4)))
    with pytest.raises(ValueError):
        ds_response_batch(ds1, np.ones(3))


def test_newton_steps_solve_singular_rows_one_by_one():
    rng = np.random.default_rng(0)
    jac = rng.normal(size=(3, 4, 4)) + 4 * np.eye(4)
    jac[1] = 0.0
    f = rng.normal(size=(3, 4))
    dx, ok = _newton_steps(jac, f)
    assert list(ok) == [True, False, True]
    for k in (0, 2):
        assert np.allclose(jac[k] @ dx[k], f[k])
