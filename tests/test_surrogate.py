import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gridveil.netmodel import CostPoly, polygon_from_vertices
from gridveil.sampling import Dataset, generate_dataset, sample_space, split_dataset
from gridveil.surrogate import (
    BundleSchemaError,
    PolytopeModel,
    QuadraticModel,
    SurrogateBundle,
    TrainConfig,
    classification_metrics,
    classify,
    export_bundle,
    fit_pcc,
    fit_quadratic,
    import_bundle,
    loss_and_grad,
    offer_bundle,
    prune_facets,
    regression_metrics,
    train_fr,
    validate_bundle_dict,
)
from gridveil.surrogate import _max_node

from oracles import fd_jacobian, nn_forward, reference_train_fr, rel_err


def toy_dataset(x, label, n_pcc=1):
    n = len(label)
    return Dataset(
        x=np.asarray(x, float),
        label=np.asarray(label, np.int8),
        p_pcc=np.zeros((n, n_pcc)),
        q_pcc=np.zeros((n, n_pcc)),
        names=tuple(f"x_{k}" for k in range(np.shape(x)[1])),
        n_pcc=n_pcc,
    )


# ------------------------------------------------------------- forward pass


def test_forward_zero_model_sits_on_boundary():
    model = PolytopeModel(np.zeros((3, 2)), np.zeros(3))
    f, y = nn_forward(model, np.zeros(2))
    assert f == 0.0 and y == 0.5
    assert classify(model, np.zeros(2)) == 0  # boundary counts as feasible


def test_forward_single_node_value():
    model = PolytopeModel(np.array([[1.0, 1.0]]), np.array([0.0]))
    f, y = nn_forward(model, np.array([1.0, 1.0]))
    assert f == 2.0
    assert abs(y - 0.88079707797788243) < 1e-15


def test_forward_sign_convention(rng):
    model = PolytopeModel(rng.normal(size=(5, 3)), rng.normal(size=5))
    x = rng.normal(size=(1000, 3))
    f, y = nn_forward(model, x)
    assert np.array_equal(y < 0.5, f < 0)
    assert np.array_equal(classify(model, x) == 1, f > 0)


def test_classify_identity_example():
    model = PolytopeModel(np.eye(2), np.zeros(2))
    assert classify(model, np.zeros(2)) == 0
    assert classify(model, np.array([0.5, -1.0])) == 1
    assert classify(model, np.array([-0.1, -0.2])) == 0


# --------------------------------------------------------------------- loss


def test_loss_saturates_to_zero_when_separated():
    model = PolytopeModel(np.array([[1.0]]), np.array([0.0]))
    x = np.array([[-40.0], [40.0]])
    y = np.array([0.0, 1.0])
    loss, grad = loss_and_grad(model, x, y, 1.0, 1.0)
    assert loss < 1e-12  # floor is exp(-F_CLAMP) per term
    assert grad.shape == (1, 2) and np.max(np.abs(grad)) < 1e-11


def test_loss_unit_weights_match_plain_bce(rng):
    model = PolytopeModel(rng.normal(size=(4, 3)), rng.normal(size=4))
    x = rng.normal(size=(50, 3))
    y = (rng.uniform(size=50) < 0.4).astype(float)
    loss, _ = loss_and_grad(model, x, y, 1.0, 1.0)
    f, prob = nn_forward(model, x)
    plain = -np.sum(y * np.log(prob) + (1 - y) * np.log1p(-prob))
    assert abs(loss - plain) < 1e-12


def test_loss_weights_scale_terms(rng):
    model = PolytopeModel(rng.normal(size=(3, 2)), rng.normal(size=3))
    x = rng.normal(size=(30, 2))
    y = (rng.uniform(size=30) < 0.5).astype(float)
    l_1, _ = loss_and_grad(model, x, y, 1.0, 0.0)
    l_0, _ = loss_and_grad(model, x, y, 0.0, 1.0)
    l_w, _ = loss_and_grad(model, x, y, 3.0, 0.5)
    assert abs(l_w - (3.0 * l_1 + 0.5 * l_0)) < 1e-10


def test_blocked_forward_is_bitwise_the_plain_formula(rng):
    # the fused [x, 1] [W | b]^T blocks against x W^T + b over block edges
    # (a 1-row tail joins the block before it); repeated rows make repeated
    # argmax nodes, so the gradient sums several terms per node
    shapes = itertools.product([2, 3, 127, 128, 129, 130, 257], [2, 12, 1000], [3, 9, 12])
    for rows, n_h, n_x in shapes:
        model = PolytopeModel(rng.normal(size=(n_h, n_x)), rng.normal(size=n_h) * 10)
        x = rng.normal(size=(rows, n_x))
        half = rows // 2
        x[half : 2 * half] = x[:half]
        y = (rng.uniform(size=rows) < 0.5).astype(float)
        o = x @ model.w.T + model.b
        k = np.argmax(o, axis=1)
        f = o[np.arange(rows), k]
        sig = 1.0 / (1.0 + np.exp(-np.clip(f, -30.0, 30.0)))
        dldf = 2.0 * y * (sig - 1.0) + (1.0 - y) * sig
        gw_ref = np.zeros((n_h, n_x))
        np.add.at(gw_ref, k, dldf[:, None] * x)
        gb_ref = np.zeros(n_h)
        np.add.at(gb_ref, k, dldf)

        shape = f"{rows} rows, {n_h} facets, {n_x} inputs"
        _, grad = loss_and_grad(model, x, y, 2.0, 1.0)
        assert np.array_equal(grad[:, :n_x], gw_ref), shape
        assert np.array_equal(grad[:, n_x], gb_ref), shape
        k_fused, f_fused = _max_node(model.wb, np.column_stack([x, np.ones(rows)]))
        assert np.array_equal(k_fused, k) and np.array_equal(f_fused, f), shape
        assert np.array_equal(classify(model, x), (f > 0).astype(np.int8)), shape


def test_model_keeps_w_and_b_as_views_of_one_array(rng):
    w, b = rng.normal(size=(4, 3)), rng.normal(size=4)
    model = PolytopeModel(w, b)
    assert np.array_equal(model.wb, np.column_stack([w, b]))
    model.wb[1] = 0.0
    assert not model.w[1].any() and model.b[1] == 0.0 and w[1].all()


def tie_free_batch(rng, model, rows, gap=1e-4):
    """Batch whose per-row argmax is robust to FD-sized parameter nudges."""
    while True:
        x = rng.normal(size=(rows, model.n_x))
        o = x @ model.w.T + model.b
        o.sort(axis=1)
        if model.n_h == 1 or np.min(o[:, -1] - o[:, -2]) > gap:
            return x


def test_loss_gradient_matches_fd(rng):
    for _ in range(50):
        n_h, n_x = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        model = PolytopeModel(rng.normal(size=(n_h, n_x)), rng.normal(size=n_h))
        x = tie_free_batch(rng, model, rows=8)
        y = (rng.uniform(size=8) < 0.5).astype(float)
        w_10, w_01 = float(rng.uniform(0.5, 4)), float(rng.uniform(0.5, 4))
        loss, grad = loss_and_grad(model, x, y, w_10, w_01)

        def loss_of(theta):
            m = PolytopeModel(theta[: n_h * n_x].reshape(n_h, n_x), theta[n_h * n_x :])
            return np.array([loss_and_grad(m, x, y, w_10, w_01)[0]])

        theta0 = np.concatenate([model.w.ravel(), model.b])
        fd = fd_jacobian(loss_of, theta0, h=1e-6)[0]
        assert rel_err(fd, np.concatenate([grad[:, :n_x].ravel(), grad[:, n_x]])) < 1e-5


# ----------------------------------------------------------------- training


def margin_cloud(rng, n, inside, margin=0.05):
    x = rng.uniform(0.0, 1.0, size=(n, 2))
    lab, keep = [], []
    for row in x:
        d = inside(row)
        if abs(d) > margin:
            keep.append(row)
            lab.append(0 if d < 0 else 1)
    return np.array(keep), np.array(lab, np.int8)


def test_train_separates_half_plane(rng):
    x, lab = margin_cloud(rng, 1500, lambda r: r[0] + r[1] - 1.0)
    ds = toy_dataset(x, lab)
    model = train_fr(ds, 1, 1.0, 1.0, TrainConfig(lr=3e-2, epochs=200, batch=128, seed=0))
    m = classification_metrics(model, ds)
    assert m.accuracy == 1.0


def test_train_recovers_box_facets(rng):
    def signed(r):
        # negative inside the [0.3, 0.7]^2 box
        return max(abs(r[0] - 0.5), abs(r[1] - 0.5)) - 0.2

    x, lab = margin_cloud(rng, 4000, signed, margin=0.03)
    ds = toy_dataset(x, lab)
    model = train_fr(ds, 8, 1.0, 1.0, TrainConfig(lr=2e-2, epochs=400, batch=256, seed=1))
    m = classification_metrics(model, ds)
    assert m.accuracy >= 0.99
    normals = model.w / np.linalg.norm(model.w, axis=1, keepdims=True)
    for edge in ([1, 0], [-1, 0], [0, 1], [0, -1]):
        angles = np.degrees(np.arccos(np.clip(normals @ edge, -1, 1)))
        assert angles.min() < 5.0, f"no facet within 5 deg of edge {edge}"


def test_train_requires_both_classes():
    ds = toy_dataset(np.random.default_rng(0).uniform(size=(40, 2)), np.zeros(40))
    with pytest.raises(ValueError, match="both classes"):
        train_fr(ds, 2, 1.0, 1.0)


def test_train_is_deterministic(rng):
    x, lab = margin_cloud(rng, 600, lambda r: r[0] - 0.5)
    ds = toy_dataset(x, lab)
    cfg = TrainConfig(lr=1e-2, epochs=30, seed=5)
    a = train_fr(ds, 3, 2.0, 1.0, cfg)
    b = train_fr(ds, 3, 2.0, 1.0, cfg)
    assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)


@pytest.mark.parametrize(
    "cfg",
    [
        TrainConfig(lr=2e-2, lr_min=1e-4, epochs=40, batch=128, seed=4, restarts=2),
        TrainConfig(lr=5e-2, epochs=300, batch=256, seed=6, patience=3),
    ],
    ids=["cosine-restarts", "early-stop"],
)
def test_train_is_bitwise_the_two_step_reference(rng, cfg):
    # 700 rows: 70 validation rows and batches of 128 or 256 with a 118-row
    # tail, so every product has >= 2 rows and >= 2 facets
    def signed(r):
        return max(abs(r[0] - 0.5), abs(r[1] - 0.5)) - 0.2

    x, lab = margin_cloud(rng, 2000, signed, margin=0.0)
    x, lab = x[:700], lab[:700]
    model = train_fr(toy_dataset(x, lab), 6, 2.0, 1.0, cfg)
    w, b, val_loss = reference_train_fr(x, lab, 6, 2.0, 1.0, cfg)
    assert np.array_equal(model.w, w) and np.array_equal(model.b, b)
    assert model.meta["val_loss"] == val_loss
    if cfg.patience == 3:
        assert model.meta["epochs_run"] < cfg.epochs


@pytest.mark.parametrize(
    "n_h, change, field",
    [
        (0, {}, "n_h"),
        (-3, {}, "n_h"),
        (4, {"batch": 0}, "batch"),
        (4, {"epochs": 0}, "epochs"),
        (4, {"restarts": 0}, "restarts"),
        (4, {"lr": 0.0}, "lr"),
        (4, {"lr": float("nan")}, "lr"),
        (4, {"lr": float("inf")}, "lr"),
        (4, {"val_frac": 1.0}, "val_frac"),
        (4, {"val_frac": -0.1}, "val_frac"),
        (4, {"val_frac": 0.99}, "val_frac"),
    ],
)
def test_train_refuses_bad_parameters_by_field(rng, n_h, change, field):
    x, lab = margin_cloud(rng, 60, lambda r: r[0] - 0.5)
    ds = toy_dataset(x[:40], lab[:40])
    with pytest.raises(ValueError, match=f"^{field}: "):
        train_fr(ds, n_h, 1.0, 1.0, TrainConfig(**{"epochs": 2, **change}))


def test_heavier_infeasible_weight_cuts_leakage(ds1):
    data = generate_dataset(ds1, 1500, seed=21)
    train, test = split_dataset(data, 0.2, seed=2)
    cfg = TrainConfig(lr=1e-2, epochs=120, seed=3)
    leaks = []
    for w_10 in (1.0, 2.0, 4.0):
        model = train_fr(train, 10, w_10, 1.0, cfg)
        leaks.append(classification_metrics(model, test).fp_infeasible)
    assert leaks[2] <= leaks[1] <= leaks[0]


# ------------------------------------------------------------ facet pruning


def test_prune_drops_duplicate_and_dominated(rng):
    w = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    b = np.array([-1.0, -1.0, -1.0, -2.0])  # facets x<=1, x<=1, y<=1, x<=2
    model = PolytopeModel(w, b)
    bounds = (np.full(2, -3.0), np.full(2, 3.0))
    pruned = prune_facets(model, bounds)
    assert pruned.n_h == 2
    assert pruned.meta["pruned_from"] == 4
    x = rng.uniform(-3, 3, size=(100000, 2))
    assert np.array_equal(classify(model, x), classify(pruned, x))


def test_prune_keeps_verdicts_on_random_polytope(rng):
    model = PolytopeModel(rng.normal(size=(10, 3)), rng.normal(size=10) - 0.5)
    bounds = (np.full(3, -1.0), np.full(3, 1.0))
    pruned = prune_facets(model, bounds)
    assert pruned.n_h <= model.n_h
    x = rng.uniform(-1, 1, size=(100000, 3))
    assert np.array_equal(classify(model, x), classify(pruned, x))


# ------------------------------------------------------------------ metrics


def test_metrics_perfect_predictor(rng):
    model = PolytopeModel(rng.normal(size=(4, 2)), rng.normal(size=4))
    x = rng.normal(size=(400, 2))
    ds = toy_dataset(x, classify(model, x))
    assume_both = np.unique(ds.label)
    assert len(assume_both) == 2
    m = classification_metrics(model, ds)
    assert (m.accuracy, m.recall, m.specificity) == (1.0, 1.0, 1.0)


def test_metrics_all_infeasible_predictor(rng):
    # degenerate always-infeasible model on a balanced set: every infeasible
    # point is caught, every feasible point is lost
    model = PolytopeModel(np.zeros((1, 2)), np.array([1.0]))
    x = rng.normal(size=(200, 2))
    label = np.zeros(200, np.int8)
    label[:100] = 1
    m = classification_metrics(model, toy_dataset(x, label))
    assert m.accuracy == 0.5
    assert m.specificity == 1.0
    assert m.recall == 0.0


def test_metrics_empty_class_is_none(rng):
    model = PolytopeModel(np.zeros((1, 2)), np.array([-1.0]))
    x = rng.normal(size=(50, 2))
    m = classification_metrics(model, toy_dataset(x, np.zeros(50, np.int8)))
    assert m.specificity is None
    assert m.recall == 1.0
    assert m.tp_feasible == 50 and m.tn_infeasible == 0


@settings(max_examples=25, deadline=None)
@given(
    w=arrays(float, (3, 2), elements=st.floats(-2, 2)),
    b=arrays(float, (3,), elements=st.floats(-2, 2)),
    seed=st.integers(0, 1000),
)
def test_feasible_midpoints_stay_feasible(w, b, seed):
    model = PolytopeModel(w, b)
    x = np.random.default_rng(seed).uniform(-3, 3, size=(300, 2))
    f, _ = nn_forward(model, x)
    inside = x[f < -1e-9]
    assume(len(inside) >= 2)
    mids = 0.5 * (inside[:-1] + inside[1:])
    assert np.all(classify(model, mids) == 0)


# ------------------------------------------------------- quadratic regression


def test_fit_quadratic_exact_recovery(rng):
    a = rng.normal(size=(3, 3))
    a = 0.5 * (a + a.T)
    b = rng.normal(size=3)
    c = 1.7
    x = rng.uniform(-2, 2, size=(100, 3))
    target = np.einsum("ni,ij,nj->n", x, a, x) + x @ b + c
    model = fit_quadratic(x, target)
    assert np.max(np.abs(model.a_quad - a)) < 1e-8
    assert np.max(np.abs(model.b_quad - b)) < 1e-8
    assert abs(model.c_quad - c) < 1e-8
    assert np.max(np.abs(model.predict(x) - target)) < 1e-8


def test_fit_quadratic_constant_target(rng):
    x = rng.uniform(size=(50, 2))
    model = fit_quadratic(x, np.full(50, 4.25))
    assert abs(model.c_quad - 4.25) < 1e-9
    assert np.max(np.abs(model.a_quad)) < 1e-9
    assert np.max(np.abs(model.b_quad)) < 1e-9


def test_fit_quadratic_warns_on_rank_deficiency(rng):
    x = np.column_stack([rng.uniform(size=30), np.ones(30)])
    target = rng.uniform(size=30)
    with pytest.warns(UserWarning, match="rank deficient"):
        fit_quadratic(x, target)


def test_fit_quadratic_needs_enough_rows(rng):
    with pytest.raises(ValueError, match="need at least 6 rows"):
        fit_quadratic(rng.uniform(size=(5, 2)), np.zeros(5))


def test_fit_quadratic_residual_orthogonality(rng):
    x = rng.uniform(-1, 1, size=(80, 2))
    target = np.sin(3 * x[:, 0]) + x[:, 1] ** 3  # not a quadratic
    model = fit_quadratic(x, target)
    resid = model.predict(x) - target
    cols = [np.ones(80), x[:, 0], x[:, 1], x[:, 0] ** 2, x[:, 0] * x[:, 1], x[:, 1] ** 2]
    for col in cols:
        assert abs(col @ resid) < 1e-8


def test_fit_pcc_equals_hand_written_fits(ds2):
    data = generate_dataset(ds2, 600, seed=5, jobs=1)
    feas = data.label == 0
    base = ds2.base_mva
    models = fit_pcc(data, base)
    assert len(models) == data.n_pcc == 2
    for u, pair in enumerate(models):
        for key, flow, label in (("p", data.p_pcc, "active"), ("q", data.q_pcc, "reactive")):
            want, got = fit_quadratic(data.x[feas], -flow[feas, u] / base), pair[key]
            assert (got.target, got.pcc_index, got.c_quad) == (label, u, want.c_quad)
            assert np.array_equal(got.a_quad, want.a_quad)
            assert np.array_equal(got.b_quad, want.b_quad)


def test_fit_pcc_refuses_a_set_without_feasible_rows(rng):
    data = toy_dataset(rng.uniform(size=(40, 3)), np.ones(40))
    with pytest.raises(ValueError, match="no feasible rows to fit on"):
        fit_pcc(data, 100.0)


@pytest.mark.parametrize("name, ds_id", [("ds1", 1), ("ds2", 2), ("ds3", 3)])
def test_offer_bundle_reads_box_charts_and_id_from_the_case(request, rng, name, ds_id):
    case = request.getfixturevalue(name)
    space = sample_space(case)
    fr = PolytopeModel(rng.normal(size=(4, space.n_x)), rng.normal(size=4))
    costs = [CostPoly(0.02, 20.0)] * case.n_gen
    bundle = offer_bundle(case, fr, [], costs)
    assert list(case.pcc_map) == [bundle.ds_id] == [ds_id]
    assert (bundle.n_pcc, bundle.n_dg) == (space.n_pcc, case.n_gen)
    assert np.array_equal([bundle.x_min, bundle.x_max], [space.x_min, space.x_max])
    assert [c.vertices for c in bundle.charts] == [c.vertices for c in case.all_dg_charts()]
    assert bundle.fr is fr and bundle.costs == costs


def test_regression_metrics_basics():
    model = QuadraticModel(np.zeros((1, 1)), np.zeros(1), 0.0)
    x = np.array([[1.0], [2.0]])
    rmse, mae = regression_metrics(model, x, np.array([0.0, 0.0]))
    assert rmse == 0.0 and mae == 0.0
    rmse, mae = regression_metrics(model, x[:1], np.array([3.0]))
    assert rmse == 3.0 and mae == 3.0
    with pytest.raises(ValueError):
        regression_metrics(model, np.empty((0, 1)), np.empty(0))


@settings(max_examples=50, deadline=None)
@given(err=arrays(float, (7,), elements=st.floats(-100, 100)))
def test_mae_never_exceeds_rmse(err):
    model = QuadraticModel(np.zeros((1, 1)), np.zeros(1), 0.0)
    x = np.zeros((7, 1))
    rmse, mae = regression_metrics(model, x, err)
    assert mae <= rmse + 1e-12


# ------------------------------------------------------------------- bundle


def small_bundle(rng):
    n_x = 3  # one pcc, one dg
    quad = lambda: QuadraticModel(
        0.5 * (lambda m: m + m.T)(rng.normal(size=(n_x, n_x))),
        rng.normal(size=n_x),
        float(rng.normal()),
    )
    return SurrogateBundle(
        ds_id=7,
        n_pcc=1,
        n_dg=1,
        x_min=np.array([0.95, 0.0, -0.4]),
        x_max=np.array([1.05, 1.5, 0.4]),
        fr=PolytopeModel(rng.normal(size=(6, n_x)), rng.normal(size=6)),
        pcc=[{"p": quad(), "q": quad()}],
        charts=[polygon_from_vertices([(0.0, -0.4), (1.5, -0.4), (1.5, 0.4), (0.0, 0.4)])],
        costs=[CostPoly(0.02, 12.5, 0.0)],
    )


def test_bundle_round_trip_identical(rng, tmp_path):
    bundle = small_bundle(rng)
    path = tmp_path / "b.json"
    export_bundle(bundle, path)
    back = import_bundle(path)
    assert back.ds_id == 7 and back.n_pcc == 1 and back.n_dg == 1
    assert np.array_equal(back.fr.w, bundle.fr.w)
    assert np.array_equal(back.fr.b, bundle.fr.b)
    assert np.array_equal(back.x_min, bundle.x_min)
    for key in ("p", "q"):
        assert np.array_equal(back.pcc[0][key].a_quad, bundle.pcc[0][key].a_quad)
        assert np.array_equal(back.pcc[0][key].b_quad, bundle.pcc[0][key].b_quad)
        assert back.pcc[0][key].c_quad == bundle.pcc[0][key].c_quad
    assert back.charts[0].vertices == bundle.charts[0].vertices
    assert back.costs[0] == bundle.costs[0]


def good_dict(rng, tmp_path):
    path = tmp_path / "good.json"
    export_bundle(small_bundle(rng), path)
    return json.loads(path.read_text())


@pytest.mark.parametrize(
    "mutate, msg",
    [
        (lambda d: d.update(branches=[[1, 2, 0.1]]), r"\['branches'\] not in"),
        (lambda d: d.update(loads={"3": 0.06}), r"\['loads'\] not in"),
        (lambda d: d["fr"].update(topology=[1]), r"fr: .*\['topology'\]"),
        (lambda d: d["pcc"][0]["p"].update(r=0.1), r"pcc\[0\]\.p: .*\['r'\]"),
        (lambda d: d.pop("costs"), r"missing field\(s\) \['costs'\]"),
        (lambda d: d["fr"]["W"][0].append(0.0), "W must be n_h x n_x"),
        (lambda d: d["fr"]["b"].append(0.0), "b length != n_h"),
        (lambda d: d["pcc"].append(d["pcc"][0]), "one entry per PCC"),
        (lambda d: d.update(meta={"command": "x"}), r"bundle: field\(s\) \['meta'\] not in"),
        (lambda d: d.update(charts=[[[0.0, 0.0], [1.0, 0.0]]]), "need >=3"),
        (lambda d: d["fr"]["W"][0].__setitem__(0, float("nan")), r"fr\.W: non-finite"),
        (lambda d: d["fr"]["b"].__setitem__(2, float("inf")), r"fr\.b: non-finite"),
        (lambda d: d["x_min"].__setitem__(1, float("-inf")), "x_min: non-finite"),
        (lambda d: d["x_max"].__setitem__(0, float("nan")), "x_max: non-finite"),
        (lambda d: d["pcc"][0]["q"]["A"][1].__setitem__(2, float("nan")), r"pcc\[0\]\.q\.A: non-finite"),
        (lambda d: d["pcc"][0]["p"]["b"].__setitem__(0, float("inf")), r"pcc\[0\]\.p\.b: non-finite"),
        (lambda d: d["pcc"][0]["p"].update(c=float("nan")), r"pcc\[0\]\.p\.c: non-finite"),
        (lambda d: d["charts"][0][1].__setitem__(0, float("nan")), r"charts\[0\]: non-finite"),
        (lambda d: d["costs"][0].update(b=float("inf")), r"costs\[0\]: non-finite"),
        (lambda d: d["costs"][0].update(a="cheap"), r"costs\[0\]: expected numbers"),
        (lambda d: d.update(x_min=d["x_max"][:1] + d["x_min"][1:]), r"x_min\[0\] >= x_max\[0\]"),
        (lambda d: d["fr"]["W"].__setitem__(2, [0.0, 0.0, 0.0]), r"fr\.W\[2\]: all-zero facet row"),
        (lambda d: d.update(n_dg=1.0), "n_dg: expected an integer"),
    ],
)
def test_bundle_schema_rejections(rng, tmp_path, mutate, msg):
    d = good_dict(rng, tmp_path)
    mutate(d)
    with pytest.raises(BundleSchemaError, match=msg):
        validate_bundle_dict(d)


@pytest.fixture(scope="module")
def good_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundle") / "good.json"
    export_bundle(small_bundle(np.random.default_rng(0)), path)
    return path.read_text()


def _number_paths(node, path=()):
    """Key paths of every number in a parsed JSON document."""
    if isinstance(node, dict):
        return [p for k, v in node.items() for p in _number_paths(v, path + (k,))]
    if isinstance(node, list):
        return [p for i, v in enumerate(node) for p in _number_paths(v, path + (i,))]
    return [path] if type(node) in (int, float) else []


def _reported_field(path) -> str:
    """The name the schema check gives the number at path."""
    head = path[0]
    if head == "pcc":
        return f"pcc[{path[1]}].{path[2]}.{path[3]}"
    if head in ("charts", "costs"):
        return f"{head}[{path[1]}]"
    if head == "fr":
        return f"fr.{path[1]}"
    return head


@settings(max_examples=200, deadline=None)
@given(data=st.data(), bad=st.sampled_from([float("nan"), float("inf"), float("-inf")]))
def test_any_non_finite_number_is_refused_by_name(good_text, data, bad):
    d = json.loads(good_text)
    path = data.draw(st.sampled_from(_number_paths(d)))
    node = d
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bad
    with pytest.raises(BundleSchemaError) as info:
        validate_bundle_dict(d)
    assert _reported_field(path) in str(info.value)


def test_import_rejects_corrupted_file(rng, tmp_path):
    d = good_dict(rng, tmp_path)
    d["impedances"] = [0.1, 0.2]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    with pytest.raises(BundleSchemaError):
        import_bundle(bad)


def test_import_rejects_nan_facet(quick_bundles, tmp_path):
    # Python's JSON reader admits NaN, so the check must not rely on the parser
    path = tmp_path / "ds1.json"
    export_bundle(quick_bundles[1], path)
    d = json.loads(path.read_text())
    d["fr"]["W"][0][0] = float("nan")
    path.write_text(json.dumps(d))
    with pytest.raises(BundleSchemaError, match=r"fr\.W: non-finite value"):
        import_bundle(path)


def test_export_refuses_foreign_meta(rng, tmp_path):
    # provenance stays DS-side: a bundle file with a meta block is refused
    path = tmp_path / "b.json"
    export_bundle(small_bundle(rng), path)
    d = json.loads(path.read_text())
    assert "meta" not in d
    d["meta"] = {"command": "gridveil bundle --case ds1", "case_hash": "0123abcd"}
    path.write_text(json.dumps(d))
    with pytest.raises(BundleSchemaError, match=r"bundle: field\(s\) \['meta'\] not in"):
        import_bundle(path)


def test_exported_bundle_holds_no_string_value(quick_bundles, tmp_path):
    # numbers only: no field can carry a path, a command line or a hash
    def strings(node):
        if isinstance(node, dict):
            node = list(node.values())
        if isinstance(node, list):
            return [s for v in node for s in strings(v)]
        return [node] if isinstance(node, str) else []

    for ds, bundle in quick_bundles.items():
        path = tmp_path / f"ds{ds}.json"
        export_bundle(bundle, path)
        assert strings(json.loads(path.read_text())) == []