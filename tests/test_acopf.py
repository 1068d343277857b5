import dataclasses

import numpy as np
import pytest

from gridveil.acopf import (
    BranchSet,
    NlpOptions,
    NlpProblem,
    append_linear_inequalities,
    assemble_polygon_extension,
    assemble_standard,
    solve_nlp,
    solve_standard,
)
from gridveil.netmodel import CostPoly, Generator, polygon_from_vertices
from gridveil.powerflow import newton_pf

from oracles import (
    dense_derivatives,
    dense_flow_jacobian,
    dense_hessian,
    dense_kkt_step,
    dense_opf_derivatives,
    dense_sq_hessian,
    fd_jacobian,
    kkt_report,
    newton_errors,
    rel_err,
    stamp_branch_rows,
)

TIGHT = NlpOptions(feastol=1e-8, gradtol=1e-8, comptol=1e-8, costtol=1e-9)
NO_ENTRIES = (np.zeros(0, dtype=int), np.zeros(0, dtype=int))


# ----------------------------------------------------------------- assembly


def test_variable_layout(toy3, ts30, integrated):
    for case in (toy3, ts30, integrated):
        p = assemble_standard(case)
        n, ng = case.n_bus, case.n_gen
        assert p.n == 2 * n + 2 * ng
        assert p.var_slices["qg"].stop == p.n
    assert assemble_standard(integrated).n == 2 * 124 + 2 * 16


def test_slack_angle_pinned(toy3):
    p = assemble_standard(toy3)
    ref = toy3.bus_index(toy3.slack_buses()[0])
    assert p.lb[ref] == p.ub[ref] == 0.0


@pytest.mark.parametrize("name", ["ts30", "ds1", "ds2", "ds3", "ieee33", "integrated"])
def test_branch_rows_are_rated_admittance_rows(name, request):
    case = request.getfixturevalue(name)
    yb, cidx = stamp_branch_rows(case)
    rows = BranchSet(case)
    assert np.array_equal(_expand(rows, rows.y), yb)
    assert np.array_equal(rows.bus[:, 0], cidx)


def _expand(rows, pairs):
    """Dense (rows x n_bus) form of per-row values at the row's (i, k) buses."""
    dense = np.zeros((rows.n_rows, rows.n_bus), dtype=pairs.dtype)
    r = np.arange(rows.n_rows)
    dense[r, rows.bus[:, 0]] = pairs[:, 0]
    dense[r, rows.bus[:, 1]] = pairs[:, 1]
    return dense


def _random_state(case, rng):
    n = case.n_bus
    return rng.uniform(0.9, 1.1, n) * np.exp(1j * rng.uniform(-0.3, 0.3, n))


def _close(got, want):
    return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _expand_hessian(rows, blocks):
    """Dense (2 n_bus x 2 n_bus) sum of per-row 4x4 blocks at the rows' columns."""
    n2 = 2 * rows.n_bus
    dense = np.zeros((n2, n2))
    np.add.at(dense, (rows.cols[:, :, None], rows.cols[:, None, :]), blocks)
    return dense


@pytest.mark.parametrize("name", ["ts30", "ds2", "ieee33", "integrated"])
def test_structured_derivatives_match_dense_formulas(name, request, rng):
    case = request.getfixturevalue(name)
    rows = BranchSet(case)
    yb, cidx = stamp_branch_rows(case)
    assert np.array_equal(_expand(rows, rows.y), yb)

    for _ in range(3):
        v = _random_state(case, rng)
        mu = rng.uniform(0.0, 1.0, rows.n_rows)
        for got, want in zip(rows.flow_jacobian(v), dense_flow_jacobian(yb, cidx, v)):
            assert _close(_expand(rows, got), want)
        got = _expand_hessian(rows, rows.sq_hessian(v, mu))
        assert _close(got, dense_sq_hessian(yb, cidx, v, mu))


@pytest.fixture()
def ds2_variant(ds2):
    """ds2 with its last branch out of service and branch 5 doubled in parallel."""
    branches = list(ds2.branches)
    branches[-1] = dataclasses.replace(branches[-1], status=0)
    return dataclasses.replace(ds2, branches=[*branches, branches[5]])


@pytest.mark.parametrize("name", ["toy3", "ts30", "ds2", "ieee33", "integrated", "ds2_variant"])
def test_pattern_callbacks_match_dense_formulas(name, request, rng):
    """Densified through their patterns, repeats summed, the equalities'
    Jacobian is dS/dV and -gen_incidence, the inequalities' is the flow-limit
    rows' 2 Re(conj(S) dS/dV), and lag_hess is the dense bus-injection and
    flow-limit Hessians plus the cost diagonal; each value vector is 1-D,
    one value per pattern entry (oracles.dense_derivatives checks)."""
    case = request.getfixturevalue(name)
    if not case.generators:  # ieee33 is a feeder without generation
        slack = Generator(case.slack_buses()[0], 0.0, 10.0, -10.0, 10.0, CostPoly(0.01, 20.0))
        case = dataclasses.replace(case, generators=[slack])
    problem = assemble_standard(case)
    n, ng = case.n_bus, case.n_gen
    n_rows = BranchSet(case).n_rows
    for _ in range(3):
        v = _random_state(case, rng)
        x = np.concatenate([np.angle(v), np.abs(v), rng.normal(size=2 * ng)])
        lam, sigma = rng.normal(size=2 * n), rng.uniform(0.5, 2.0)
        mu = rng.uniform(0.0, 1.0, n_rows)
        want_jg, want_jh, want_hess = dense_opf_derivatives(case, x, sigma, lam, mu)
        _, jg, _, jh = dense_derivatives(problem, x)
        assert _close(jg, want_jg) and _close(jh, want_jh)
        assert _close(dense_hessian(problem, x, sigma, lam, mu), want_hess)


def test_equality_residual_counts(toy3):
    p = assemble_standard(toy3)
    g, jg, h, jh = dense_derivatives(p, p.x0)
    assert g.shape == (6,) and jg.shape == (6, 10)
    assert len(h) == 2 * sum(1 for b in toy3.branches if b.s_max > 0)
    assert jh.shape == (len(h), 10)
    # values on the patterns: 4 of dS/dV per pattern entry and one per generator
    # column; 4 per flow row
    assert len(p.eq(p.x0)[1]) == 4 * (3 + 2 * 3) + 2 * 2
    assert len(p.ineq(p.x0)[1]) == 4 * len(h)


# ------------------------------------------------------------------- solver


def test_solver_unconstrained_quadratic():
    def obj(x):
        return float((x[0] - 2.0) ** 2 + 3.0), np.array([2 * (x[0] - 2.0)])

    def hess(x, sigma, lam, mu):
        return sigma * np.array([2.0])

    p = NlpProblem(
        x0=np.zeros(1),
        lb=np.array([-5.0]),
        ub=np.array([5.0]),
        objective=obj,
        lag_hess=hess,
        hess_at=(np.array([0]), np.array([0])),
    )
    sol = solve_nlp(p, TIGHT)
    assert sol.optimal
    assert abs(sol.x[0] - 2.0) < 1e-6
    assert abs(sol.objective - 3.0) < 1e-8


def test_solver_active_linear_constraint():
    # min x+y  s.t. x+y >= 1, boxes [0, 2]: any point on the facet, cost 1
    def obj(x):
        return float(x[0] + x[1]), np.ones(2)

    def ineq(x):
        return np.array([1.0 - x[0] - x[1]]), np.array([-1.0, -1.0])

    p = NlpProblem(
        x0=np.full(2, 0.8),
        lb=np.zeros(2),
        ub=np.full(2, 2.0),
        objective=obj,
        lag_hess=lambda x, sigma, lam, mu: np.zeros(0),
        hess_at=NO_ENTRIES,
        inequalities=ineq,
        ineq_at=(np.array([0, 0]), np.array([0, 1])),
    )
    sol = solve_nlp(p, TIGHT)
    assert sol.optimal
    assert abs(sol.objective - 1.0) < 1e-7
    assert sol.mu[0] > 0.9  # facet is binding with multiplier ~1
    assert np.min(sol.mu_box) > -1e-9


def test_solver_bound_multipliers():
    # min (x0 - 3)^2 + (x1 - 0.5)^2 on [0, 2]^2: x0 rests on its upper bound
    def obj(x):
        return float((x[0] - 3.0) ** 2 + (x[1] - 0.5) ** 2), 2 * (x - np.array([3.0, 0.5]))

    p = NlpProblem(
        x0=np.ones(2),
        lb=np.zeros(2),
        ub=np.full(2, 2.0),
        objective=obj,
        lag_hess=lambda x, sigma, lam, mu: sigma * np.array([2.0, 2.0]),
        hess_at=(np.arange(2), np.arange(2)),
    )
    sol = solve_nlp(p, TIGHT)
    assert sol.optimal
    assert np.allclose(sol.x, [2.0, 0.5], atol=1e-6)
    # upper bounds in column order, then lower bounds
    assert sol.mu_box.shape == (4,)
    assert np.min(sol.mu_box) > -1e-9
    assert abs(sol.mu_box[0] - 2.0) < 1e-6
    assert np.max(sol.mu_box[1:]) < 1e-6


def test_solver_rejects_empty_box():
    p = NlpProblem(
        x0=np.zeros(2),
        lb=np.array([0.0, 1.0]),
        ub=np.array([1.0, 0.0]),
        objective=lambda x: (0.0, np.zeros(2)),
        lag_hess=lambda x, sigma, lam, mu: np.zeros(0),
        hess_at=NO_ENTRIES,
    )
    with pytest.raises(ValueError, match="empty box"):
        solve_nlp(p)


def test_solver_refuses_a_problem_without_inequalities():
    # no inequality row and no finite bound: the barrier has nothing to act on
    p = NlpProblem(
        x0=np.zeros(2),
        lb=np.full(2, -np.inf),
        ub=np.full(2, np.inf),
        objective=lambda x: (float(x @ x), 2 * x),
        lag_hess=lambda x, sigma, lam, mu: sigma * np.array([2.0, 2.0]),
        hess_at=(np.arange(2), np.arange(2)),
    )
    with pytest.raises(ValueError, match="no inequality row and no finite bound"):
        solve_nlp(p)


# ------------------------------------------------- Newton system by blocks


def test_integrated_case_is_partitioned_by_ds(integrated, ts30):
    p = assemble_standard(integrated)
    n, pg, qg = integrated.n_bus, p.var_slices["pg"].start, p.var_slices["qg"].start
    bus_owner = np.full(n, -1)
    for ds, own in integrated.meta["ds_buses"].items():
        bus_owner[[integrated.bus_index(b) for b in own]] = ds
    gen_owner = np.full(integrated.n_gen, -1)
    for ds, gens in integrated.meta["dg_map"].items():
        gen_owner[gens] = ds
    # the PCC buses stay with the TS
    pcc = [integrated.bus_index(t) for c in integrated.pcc_map.values() for _, t in c]
    assert np.all(bus_owner[pcc] == -1)
    assert np.array_equal(p.col_owner[:n], bus_owner)
    assert np.array_equal(p.col_owner[n : 2 * n], bus_owner)
    assert np.array_equal(p.col_owner[pg:qg], gen_owner)
    assert np.array_equal(p.col_owner[qg:], gen_owner)
    assert np.array_equal(p.eq_owner, np.concatenate([bus_owner, bus_owner]))
    ts = assemble_standard(ts30)
    assert np.all(ts.col_owner == -1) and np.all(ts.eq_owner == -1)


def test_block_solve_on_the_integrated_standard_opf(integrated, kkt_systems):
    sol = solve_nlp(_with_dg_charts(integrated))
    assert sol.optimal and len(kkt_systems) >= sol.iterations > 5
    for i, rec in enumerate(kkt_systems):
        # three DS blocks and the TS; one PCC touches its theta, vm and two balance rows
        assert len(rec["blocks"].parts) == 4 and rec["touch"] == [4, 8, 8]
        residual, to_dense = newton_errors(rec)
        assert residual <= 1e-12
        # late iterates are too ill-conditioned for two solves to agree closely
        if i < 3:
            assert to_dense <= 1e-10


def test_formed_blocks_are_the_parts_of_the_dense_newton_system(integrated, kkt_systems):
    sol = solve_nlp(_with_dg_charts(integrated))
    assert sol.optimal and len(kkt_systems) >= sol.iterations > 5
    for rec in kkt_systems:
        assert rec["touch"] == [4, 8, 8]
        args = (*rec["form"], rec["r_x"], rec["r_g"], rec["reg"])
        k, _, _, fc = dense_kkt_step(rec["problem"], *args)
        at = [np.concatenate([np.searchsorted(fc, c), len(fc) + e]) for c, e in rec["blocks"].parts]
        covered = np.zeros(k.shape, dtype=bool)
        for b, (a, idx) in enumerate(zip(rec["mats"], at)):
            part = k[np.ix_(idx, idx)]
            assert np.max(np.abs(a - part)) <= 1e-13 * np.max(np.abs(part))
            covered[np.ix_(idx, idx)] = True
            if b < len(rec["strips"]):
                part = k[np.ix_(idx, at[-1])]
                assert np.max(np.abs(rec["strips"][b] - part)) <= 1e-13 * np.max(np.abs(part))
                covered[np.ix_(idx, at[-1])] = covered[np.ix_(at[-1], idx)] = True
        # no entry of K lies outside the blocks and their strips
        assert not np.any(k[~covered])


def test_one_block_problem_matches_the_dense_solve(toy3, kkt_systems):
    sol = solve_standard(toy3)
    assert sol.optimal and len(kkt_systems) >= sol.iterations
    for rec in kkt_systems:
        assert len(rec["blocks"].parts) == 1
        residual, to_dense = newton_errors(rec)
        assert residual <= 1e-12 and to_dense <= 1e-12


def test_a_branch_between_two_ds_is_refused(integrated):
    b1, b2 = integrated.meta["ds_buses"][1][0], integrated.meta["ds_buses"][2][0]
    tie = dataclasses.replace(integrated.branches[-1], from_bus=b1, to_bus=b2)
    case = dataclasses.replace(integrated, branches=[*integrated.branches, tie])
    with pytest.raises(ValueError, match="joins the buses of two DSs"):
        assemble_standard(case)


def _two_dgs(case, problem):
    """The p columns of DS 1's and DS 2's first DGs."""
    pg, dg_map = problem.var_slices["pg"].start, case.meta["dg_map"]
    return np.array([pg + dg_map[1][0], pg + dg_map[2][0]])


def test_a_linear_row_across_two_owners_is_refused(integrated):
    p = assemble_standard(integrated)
    append_linear_inequalities(p, (np.zeros(2), _two_dgs(integrated, p)), np.ones(2), np.ones(1))
    with pytest.raises(ValueError, match="^linear row 0 spans the columns of two owners$"):
        solve_nlp(p)


def test_an_inequality_row_across_two_owners_is_refused(integrated):
    p = assemble_standard(integrated)
    cols, row = _two_dgs(integrated, p), BranchSet(integrated).n_rows
    flows = p.inequalities

    def inequalities(x):
        h, jh = flows(x)
        return np.append(h, x[cols].sum() - 1.0), np.append(jh, [1.0, 1.0])

    at = (np.append(p.ineq_at[0], [row, row]), np.append(p.ineq_at[1], cols))
    p = dataclasses.replace(p, inequalities=inequalities, ineq_at=at)
    with pytest.raises(ValueError, match=f"^inequality row {row} spans the columns of two owners$"):
        solve_nlp(p)


def test_an_equality_row_across_two_owners_is_refused(integrated):
    # a balance row of DS 1 whose pattern names a column of DS 2: a structural
    # entry is enough, whatever its value
    p = assemble_standard(integrated)
    row, col = np.flatnonzero(p.eq_owner == 1)[0], np.flatnonzero(p.col_owner == 2)[0]
    balance = p.equalities

    def equalities(x):
        g, jg = balance(x)
        return g, np.append(jg, 0.0)

    at = (np.append(p.eq_at[0], row), np.append(p.eq_at[1], col))
    p = dataclasses.replace(p, equalities=equalities, eq_at=at)
    with pytest.raises(ValueError, match=f"^equality row {row} spans the columns of two owners$"):
        solve_nlp(p)


def test_a_hessian_entry_across_two_owners_is_refused(integrated):
    p = assemble_standard(integrated)
    cols = _two_dgs(integrated, p)
    lag_hess = p.lag_hess
    at = (np.append(p.hess_at[0], cols), np.append(p.hess_at[1], cols[::-1]))
    p = dataclasses.replace(
        p, lag_hess=lambda *args: np.append(lag_hess(*args), [0.0, 0.0]), hess_at=at
    )
    name = rf"Lagrangian Hessian entry \({cols[0]}, {cols[1]}\)"
    with pytest.raises(ValueError, match=f"^{name} spans the columns of two owners$"):
        solve_nlp(p)


def test_iteration_cap_is_named(toy3):
    sol = solve_standard(toy3, NlpOptions(max_iter=2))
    assert sol.status == "iteration_limit" and sol.iterations == 2
    assert sol.message.startswith("stopped at the 2-iteration cap: feasibility ")
    assert "gradient" in sol.message and "complementarity" in sol.message


def test_opf_toy_case_views(toy3):
    sol = solve_standard(toy3, TIGHT)
    assert sol.optimal
    assert sol.v is not None and sol.theta is not None
    assert len(sol.p_g) == 2
    # cheap unit runs at its ceiling
    assert abs(sol.p_g[1] - 60.0) < 1e-4
    p = assemble_standard(toy3)
    assert np.all(sol.p_g / toy3.base_mva <= p.ub[p.var_slices["pg"]] + 1e-8)


def test_opf_infeasible_when_demand_exceeds_capacity(toy3):
    heavy = dataclasses.replace(
        toy3,
        buses=[
            dataclasses.replace(b, p_d=b.p_d * 10, q_d=b.q_d * 10) for b in toy3.buses
        ],
    )
    sol = solve_standard(heavy)
    assert not sol.optimal
    assert sol.status == "infeasible"


def test_opf_solution_satisfies_power_flow(toy3):
    # feed the dispatch back through the flow solver; same state must return
    sol = solve_standard(toy3, TIGHT)
    slack_id = toy3.slack_buses()[0]
    p_inj, q_inj = {}, {}
    for g, gen in enumerate(toy3.generators):
        if gen.bus == slack_id:
            continue
        p_inj[gen.bus] = p_inj.get(gen.bus, 0.0) + sol.p_g[g]
        q_inj[gen.bus] = q_inj.get(gen.bus, 0.0) + sol.q_g[g]
    i_slack = toy3.bus_index(slack_id)
    fixed = {slack_id: sol.v[i_slack] * np.exp(1j * sol.theta[i_slack])}
    res = newton_pf(toy3, fixed=fixed, pv={}, p_inj=p_inj, q_inj=q_inj, tol=1e-12)
    assert res.converged
    v_opf = sol.v * np.exp(1j * sol.theta)
    assert np.max(np.abs(res.v - v_opf)) < 1e-5


def test_cost_scaling_leaves_dispatch(toy3):
    sol = solve_standard(toy3, TIGHT)
    scaled = dataclasses.replace(
        toy3,
        generators=[
            dataclasses.replace(
                g, cost=CostPoly(7 * g.cost.a, 7 * g.cost.b, 7 * g.cost.c)
            )
            for g in toy3.generators
        ],
    )
    sol7 = solve_standard(scaled, TIGHT)
    assert sol7.optimal
    assert np.isclose(sol7.objective, 7 * sol.objective, rtol=1e-6)
    assert np.max(np.abs(sol7.p_g - sol.p_g)) < 1e-4


# -------------------------------------------------------- polygon extension


def test_rectangle_charts_are_redundant(toy3):
    rects = [
        polygon_from_vertices(
            [
                (g.p_min, g.q_min),
                (g.p_max, g.q_min),
                (g.p_max, g.q_max),
                (g.p_min, g.q_max),
            ]
        )
        for g in toy3.generators
    ]
    base = solve_standard(toy3, TIGHT)
    boxed = solve_standard(toy3, TIGHT, charts=rects)
    assert base.optimal and boxed.optimal
    assert abs(boxed.objective - base.objective) <= 1e-8 * (1 + abs(base.objective))


def test_triangle_chart_binds(toy3):
    free = solve_standard(toy3, TIGHT)
    g2 = free.p_g[1] + free.q_g[1]
    s = 0.8 * g2
    tri = polygon_from_vertices([(0.0, 0.0), (s, 0.0), (0.0, s)])
    box1 = toy3.generators[0]
    rect = polygon_from_vertices(
        [
            (box1.p_min, box1.q_min),
            (box1.p_max, box1.q_min),
            (box1.p_max, box1.q_max),
            (box1.p_min, box1.q_max),
        ]
    )
    cut = solve_standard(toy3, TIGHT, charts=[rect, tri])
    assert cut.optimal
    assert cut.objective > free.objective + 1e-6
    assert cut.p_g[1] + cut.q_g[1] <= s + 1e-6
    # the hypotenuse is the binding facet
    assert abs(cut.p_g[1] + cut.q_g[1] - s) < 1e-4


def test_chart_count_must_match(toy3):
    p = assemble_standard(toy3)
    tri = polygon_from_vertices([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    with pytest.raises(ValueError, match="expected 2 charts"):
        assemble_polygon_extension(p, [tri])


def test_empty_chart_list_is_identity(toy3):
    no_dg = dataclasses.replace(toy3, meta={"dg_map": {}})
    p = assemble_standard(no_dg)
    assert assemble_polygon_extension(p, []) is p


# -------------------------------------------------------------- kkt_report


def test_kkt_clean_at_optimum(toy3):
    p = assemble_standard(toy3)
    sol = solve_nlp(p, TIGHT)
    rep = kkt_report(p, sol)
    assert rep.ok(1e-6), rep


def test_kkt_flags_perturbed_dispatch(toy3):
    p = assemble_standard(toy3)
    sol = solve_nlp(p, TIGHT)
    rep0 = kkt_report(p, sol)
    sol.x = sol.x.copy()
    sol.x[p.var_slices["pg"].start] += 0.01
    rep = kkt_report(p, sol)
    assert rep.stationarity > 100 * max(rep0.stationarity, 1e-9) or rep.primal_eq > 1e-4


def _verification_shaped(case, dg):
    """case with generator dg pinned to its OPF setpoint, as verify_dispatch pins DGs."""
    sol = solve_standard(case, TIGHT)
    gens = list(case.generators)
    p, q = sol.p_g[dg], sol.q_g[dg]
    gens[dg] = dataclasses.replace(gens[dg], p_min=p, p_max=p, q_min=q, q_max=q)
    return assemble_standard(dataclasses.replace(case, generators=gens))


def test_kkt_clean_at_verification_optimum(toy3):
    p = _verification_shaped(toy3, 1)
    sol = solve_nlp(p, TIGHT)
    assert sol.optimal
    pinned = p.lb == p.ub
    assert pinned.sum() == 3  # slack angle, then the DG's p and q
    assert np.array_equal(sol.x[pinned], p.lb[pinned])
    rep = kkt_report(p, sol)
    assert rep.ok(1e-6), rep


def test_kkt_flags_perturbed_free_column_at_verification_optimum(toy3):
    p = _verification_shaped(toy3, 1)
    sol = solve_nlp(p, TIGHT)
    rep0 = kkt_report(p, sol)
    moved = dataclasses.replace(sol, x=sol.x.copy())
    moved.x[p.var_slices["pg"].start] += 0.01  # the free slack generator
    rep = kkt_report(p, moved)
    assert rep.stationarity > 100 * max(rep0.stationarity, 1e-9) or rep.primal_eq > 1e-4
    assert not rep.ok(1e-6)


# ------------------------------------------------- derivative verification


def _interior_points(problem, rng, count):
    lb = problem.lb.copy()
    ub = problem.ub.copy()
    span = ub - lb
    # keep away from the exact edges so FD steps stay inside
    lo = np.where(np.isfinite(span), lb + 0.05 * span, lb)
    hi = np.where(np.isfinite(span), ub - 0.05 * span, ub)
    return [lo + rng.uniform(size=problem.n) * (hi - lo) for _ in range(count)]


@pytest.mark.parametrize("fixture", ["toy3", "ts30", "integrated"])
def test_constraint_jacobians_match_fd(fixture, request, rng):
    case = request.getfixturevalue(fixture)
    problem = assemble_standard(case)
    count = 20 if case.n_bus < 50 else 5
    for x in _interior_points(problem, rng, count):
        g, jg, h, jh = dense_derivatives(problem, x)
        assert rel_err(fd_jacobian(lambda z: problem.eq(z)[0], x, h=1e-6), jg) < 1e-5
        if len(h):
            assert (
                rel_err(fd_jacobian(lambda z: problem.ineq(z)[0], x, h=1e-6), jh) < 1e-5
            )


@pytest.mark.parametrize("fixture", ["toy3", "ts30"])
def test_objective_gradient_matches_fd(fixture, request, rng):
    case = request.getfixturevalue(fixture)
    problem = assemble_standard(case)
    for x in _interior_points(problem, rng, 5):
        _, grad = problem.objective(x)
        fd = fd_jacobian(lambda z: np.array([problem.objective(z)[0]]), x, h=1e-6)
        assert rel_err(fd[0], grad) < 1e-6


def _with_dg_charts(case):
    """The standard OPF of an integrated case with every DG's chart rows."""
    dg_map = case.meta["dg_map"]
    charts = [c for ds in sorted(dg_map) for c in case.charts_for(ds, dg_map[ds])]
    problem = assemble_polygon_extension(assemble_standard(case), charts)
    assert len(problem.b_lin) == sum(len(c.b_pq) for c in charts) > 0
    return problem


@pytest.mark.parametrize("fixture", ["toy3", "ts30", "integrated"])
def test_lagrangian_hessian_matches_fd(fixture, request, rng):
    case = request.getfixturevalue(fixture)
    if "dg_map" in case.meta:
        problem = _with_dg_charts(case)
    else:
        problem = assemble_standard(case)
    m_eq = len(problem.eq(problem.x0)[0])
    m_ineq = len(problem.ineq(problem.x0)[0])
    for x in _interior_points(problem, rng, 5 if case.n_bus < 50 else 2):
        lam = rng.normal(size=m_eq)
        mu = rng.uniform(0.1, 1.0, size=m_ineq)

        def grad_l(z):
            _, df = problem.objective(z)
            _, jg, _, jh = dense_derivatives(problem, z)
            return df + jg.T @ lam + jh.T @ mu

        hess = dense_hessian(problem, x, 1.0, lam, mu)
        assert rel_err(fd_jacobian(grad_l, x, h=1e-6), hess) < 1e-4
