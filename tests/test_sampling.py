import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridveil.powerflow import BLOCK_ROWS, ds_response, newton_pf
from gridveil.sampling import (
    chart_mask,
    csv_header,
    generate_dataset,
    lhs,
    read_csv,
    resolve_jobs,
    sample_space,
    split_dataset,
    write_csv,
)

from oracles import shoelace_area


def stratum_counts(x, lo, hi, n):
    k = np.floor((x - lo) / (hi - lo) * n).astype(int)
    return np.bincount(np.clip(k, 0, n - 1), minlength=n)


# ------------------------------------------------------------------ lhs


def test_lhs_one_point_per_stratum_small():
    rng = np.random.default_rng(0)
    x = lhs(4, np.array([0.0]), np.array([1.0]), rng)
    assert x.shape == (4, 1)
    assert sorted(int(v * 4) for v in x[:, 0]) == [0, 1, 2, 3]


def test_lhs_stratified_every_dimension():
    lo = np.array([-2.0, 0.0, 10.0])
    hi = np.array([5.0, 1.0, 11.0])
    x = lhs(1000, lo, hi, np.random.default_rng(7))
    for k in range(3):
        assert np.all(stratum_counts(x[:, k], lo[k], hi[k], 1000) == 1)
    assert np.all(x >= lo) and np.all(x <= hi)


def test_lhs_seed_determinism():
    lo, hi = np.zeros(2), np.ones(2)
    a = lhs(50, lo, hi, np.random.default_rng(3))
    b = lhs(50, lo, hi, np.random.default_rng(3))
    c = lhs(50, lo, hi, np.random.default_rng(4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 64), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_lhs_stratification_property(n, d, seed):
    lo = np.arange(d, dtype=float)
    hi = lo + np.linspace(0.5, 2.0, d)
    x = lhs(n, lo, hi, np.random.default_rng(seed))
    for k in range(d):
        assert np.all(stratum_counts(x[:, k], lo[k], hi[k], n) == 1)


# --------------------------------------------------------------- the space


def test_sample_space_layout(ds3):
    space = sample_space(ds3)
    assert space.n_pcc == 2 and space.n_dg == 5
    assert space.names[:2] == ("v_pcc_1", "v_pcc_2")
    assert space.names[2:7] == tuple(f"p_dg_{k}" for k in range(1, 6))
    assert space.n_x == 12
    for k, chart in enumerate(space.charts):
        assert space.x_min[2 + k] == chart.box[0]
        assert space.x_max[2 + 5 + k] == chart.box[3]


def test_chart_mask_matches_area_fraction(ds3):
    space = sample_space(ds3)
    n = 20000
    x = lhs(n, space.x_min, space.x_max, np.random.default_rng(11))
    inside = chart_mask(space, x)
    p_exp = 1.0
    for chart in space.charts:
        lo_p, hi_p, lo_q, hi_q = chart.box
        p_exp *= shoelace_area(chart.vertices) / ((hi_p - lo_p) * (hi_q - lo_q))
    sigma = np.sqrt(p_exp * (1 - p_exp) / n)
    assert abs(np.mean(inside) - p_exp) < 4 * sigma


def test_resolve_jobs(monkeypatch):
    assert resolve_jobs(3) == 3
    monkeypatch.delenv("GRIDVEIL_JOBS", raising=False)
    assert resolve_jobs(None) == 1
    monkeypatch.setenv("GRIDVEIL_JOBS", "5")
    assert resolve_jobs(None) == 5
    with pytest.raises(ValueError):
        resolve_jobs(0)


# --------------------------------------------------------- generate_dataset


def test_generate_dataset_labels_and_flows(ds3):
    ds = generate_dataset(ds3, 200, seed=5)
    assert ds.n == 200
    assert ds.meta["case"] == "ds3"
    assert ds.meta["feasible"] == int(np.sum(ds.label == 0))

    space = sample_space(ds3)
    inside = chart_mask(space, ds.x)
    # a point outside any chart is infeasible with no flow on record
    assert np.all(ds.label[~inside] == 1)
    assert np.all(np.isnan(ds.p_pcc[~inside]))

    feas = np.flatnonzero(ds.label == 0)
    assert np.all(np.isfinite(ds.p_pcc[feas]))
    for i in feas[:10]:
        row = ds.x[i]
        resp = ds_response(ds3, row[:2], row[2:7], row[7:])
        assert resp.feasible
        assert np.max(np.abs(resp.p_pcc - ds.p_pcc[i])) <= 1e-10
        assert np.max(np.abs(resp.q_pcc - ds.q_pcc[i])) <= 1e-10


def test_labelled_flows_match_a_tight_newton_flow(ds3):
    # perfbench's ds-labelling seed for run 307, operation 55, feeder ds3: a
    # Newton stop at 1e-8 p.u. left row 7's PCC flows 1.83e-6 MW off
    seed = int(np.random.SeedSequence([307, 55, 2]).generate_state(1)[0])
    ds = generate_dataset(ds3, 500, seed=seed)
    (couplings,) = ds3.pcc_map.values()
    r, n_dg = ds.n_pcc, ds3.n_gen
    worst = 0.0
    for i in np.flatnonzero(ds.label == 0):
        x = ds.x[i]
        p_inj, q_inj = {}, {}
        for g, gen in enumerate(ds3.generators):
            p_inj[gen.bus] = p_inj.get(gen.bus, 0.0) + x[r + g]
            q_inj[gen.bus] = q_inj.get(gen.bus, 0.0) + x[r + n_dg + g]
        fixed = {bus: complex(x[u]) for u, (bus, _) in enumerate(couplings)}
        res = newton_pf(ds3, fixed=fixed, pv={}, p_inj=p_inj, q_inj=q_inj, tol=1e-12)
        assert res.converged
        for u, (bus, _) in enumerate(couplings):
            k = ds3.bus_index(bus)
            s_pcc = -(res.s_inj[k] + complex(ds3.buses[k].p_d, ds3.buses[k].q_d))
            worst = max(worst, abs(s_pcc.real - ds.p_pcc[i, u]), abs(s_pcc.imag - ds.q_pcc[i, u]))
    assert worst <= 2e-7, worst


def test_generate_dataset_worker_count_invariance(ds1):
    # ds1 has no charts, so all 121 rows are labelled and the last block is short
    assert 121 % BLOCK_ROWS
    a = generate_dataset(ds1, 121, seed=9, jobs=1)
    for jobs in (2, 3):
        b = generate_dataset(ds1, 121, seed=9, jobs=jobs)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.label, b.label)
        assert np.array_equal(a.p_pcc, b.p_pcc, equal_nan=True)
        assert np.array_equal(a.q_pcc, b.q_pcc, equal_nan=True)


def test_generate_dataset_all_feasible_when_unconstrained(ds1):
    # loose bands everywhere except the PCC, whose band is the sampled range
    pcc = {ds_bus for ds_bus, _ in ds1.pcc_map[1]}
    relaxed = dataclasses.replace(
        ds1,
        buses=[
            dataclasses.replace(b, v_min=0.99, v_max=1.05)
            if b.id in pcc
            else dataclasses.replace(b, v_min=0.5, v_max=1.5)
            for b in ds1.buses
        ],
        branches=[dataclasses.replace(br, s_max=0.0) for br in ds1.branches],
    )
    ds = generate_dataset(relaxed, 100, seed=2)
    assert ds.feasible_fraction == 1.0


# ------------------------------------------------------------ split / csv


def test_split_sizes_and_partition(ds1):
    ds = generate_dataset(ds1, 100, seed=1)
    big = ds.subset(np.tile(np.arange(100), 10))  # 1000 rows, cheap
    train, test = split_dataset(big, test_frac=0.2, seed=3)
    assert train.n == 800 and test.n == 200
    both = np.vstack([train.x, test.x])
    assert sorted(map(tuple, both)) == sorted(map(tuple, big.x))
    t2, s2 = split_dataset(big, test_frac=0.2, seed=3)
    assert np.array_equal(train.x, t2.x) and np.array_equal(test.x, s2.x)
    assert train.meta["class0"] == int(np.sum(train.label == 0))
    with pytest.raises(ValueError):
        split_dataset(big, test_frac=0.0)


def test_csv_round_trip_is_bitwise(ds1, tmp_path):
    ds = generate_dataset(ds1, 80, seed=6)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, ds)
    back = read_csv(p1)
    assert np.array_equal(ds.x, back.x)
    assert np.array_equal(ds.label, back.label)
    assert np.array_equal(ds.p_pcc, back.p_pcc, equal_nan=True)
    assert back.names == ds.names and back.n_pcc == ds.n_pcc
    assert back.meta == ds.meta
    write_csv(p2, back)
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads((tmp_path / "a.csv.meta.json").read_text()) == ds.meta


def test_csv_bytes_match_per_cell_formatting(ds2, tmp_path):
    ds = generate_dataset(ds2, 60, seed=4)
    assert np.any(np.isnan(ds.p_pcc)) and np.any(ds.label == 0)
    lines = [csv_header(ds.names, ds.n_pcc)]
    for i in range(ds.n):
        cells = ["%.17g" % v for v in ds.x[i]] + [str(int(ds.label[i]))]
        cells += ["%.17g" % v for v in ds.p_pcc[i]] + ["%.17g" % v for v in ds.q_pcc[i]]
        lines.append(",".join(cells))
    path = tmp_path / "d.csv"
    write_csv(path, ds)
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_csv_header_errors(ds1, tmp_path):
    ds = generate_dataset(ds1, 10, seed=6)
    path = tmp_path / "d.csv"
    write_csv(path, ds)
    lines = path.read_text().splitlines()

    nolabel = tmp_path / "nolabel.csv"
    nolabel.write_text(lines[0].replace("label", "verdict") + "\n" + "\n".join(lines[1:]))
    with pytest.raises(ValueError, match="lacks a label column"):
        read_csv(nolabel)

    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(
        lines[0].replace("p_pcc_1", "x_pcc_1") + "\n" + "\n".join(lines[1:])
    )
    with pytest.raises(ValueError, match="unexpected header layout"):
        read_csv(shuffled)


def test_csv_row_errors(ds1, tmp_path):
    ds = generate_dataset(ds1, 10, seed=6)
    path = tmp_path / "d.csv"
    write_csv(path, ds)
    lines = path.read_text().splitlines()

    short = tmp_path / "short.csv"
    short.write_text("\n".join(lines[:4] + [lines[4].rsplit(",", 1)[0]] + lines[5:]) + "\n")
    with pytest.raises(ValueError, match="line 5: expected"):
        read_csv(short)

    garbled = tmp_path / "garbled.csv"
    cells = lines[2].split(",")
    cells[1] = "abc"
    garbled.write_text("\n".join([lines[0], lines[1], ",".join(cells)] + lines[3:]) + "\n")
    with pytest.raises(ValueError, match="line 3: bad number 'abc'"):
        read_csv(garbled)


def test_csv_rejects_feasible_row_without_flows(ds1, tmp_path):
    ds = generate_dataset(ds1, 10, seed=6)
    i = int(np.flatnonzero(ds.label == 0)[0])
    ds.label[np.flatnonzero(ds.label == 1)] = 0  # claim every row feasible
    path = tmp_path / "d.csv"
    write_csv(path, ds)
    first_nan = int(np.flatnonzero(~np.isfinite(ds.p_pcc[:, 0]))[0])
    with pytest.raises(ValueError, match=f"line {first_nan + 2}: feasible row without"):
        read_csv(path)
    assert i >= 0  # dataset really had both classes before the edit


def test_csv_header_builder():
    assert csv_header(("v_pcc_1", "p_dg_1", "q_dg_1"), 1) == (
        "v_pcc_1,p_dg_1,q_dg_1,label,p_pcc_1,q_pcc_1"
    )
