import dataclasses
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridveil.netmodel import (
    CaseFormatError,
    NetworkCase,
    build_admittance,
    build_integrated,
    bundled_case,
    parse_case,
    polygon_from_vertices,
    rectangle_chart,
    serialize_case,
)

from oracles import crossing_contains, stamp_branch_rows, stamp_ybus

def _inside(chart, p, q, tol=1e-9):
    return float(np.max(chart.a_pq @ np.array([p, q]) - chart.b_pq)) <= tol


TWO_BUS = """
case two
base 100
bus 1 slack 0.95 1.05 -1.5707963267 1.5707963267 0 0
bus 2 pq 0.95 1.05 -1.5707963267 1.5707963267 0 0
branch 1 2 0 0.1 0 1 0 1
gen 1 0 10 -10 10 0 1 0
"""


# ---------------------------------------------------------------- parsing


@pytest.mark.parametrize("name", ["ds1", "ds2", "ds3", "ts30", "ieee33"])
def test_case_round_trip(name):
    case = bundled_case(name)
    again = parse_case(serialize_case(case), name=case.name)
    assert again.buses == case.buses
    assert again.branches == case.branches
    assert again.generators == case.generators
    assert again.pcc_map == case.pcc_map
    assert again.dg_charts == case.dg_charts
    assert serialize_case(again) == serialize_case(case)


def test_ieee33_inventory(ieee33):
    assert len(ieee33.buses) == 33
    assert len(ieee33.branches) == 37  # 32 tree branches + 5 tie lines


def test_unknown_bus_rejected():
    text = TWO_BUS + "branch 1 99 0.1 0.1 0 1 0 1\n"
    with pytest.raises(CaseFormatError, match="unknown bus"):
        parse_case(text)


def test_duplicate_bus_rejected():
    text = TWO_BUS + "bus 2 pq 0.95 1.05 -1.5 1.5 0 0\n"
    with pytest.raises(CaseFormatError, match="duplicate"):
        parse_case(text)


def test_chart_for_unknown_dg_rejected(ds1):
    text = serialize_case(ds1) + "dgchart 1 7 0 0 1 0 1 1\n"
    n_lines = text.count("\n")
    with pytest.raises(CaseFormatError, match=f"line {n_lines}: unknown DG 7"):
        parse_case(text)


def test_pcc_bus_listed_twice_rejected(ds1):
    text = serialize_case(ds1) + "pcc 1 1 999 2\n"
    n_lines = text.count("\n")
    with pytest.raises(CaseFormatError, match=f"line {n_lines}: DS 1 lists bus 1 twice"):
        parse_case(text)


def test_branch_status_other_than_0_or_1_rejected(ds1):
    lines = serialize_case(ds1).splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("branch "))
    lines[k] = lines[k].rsplit(" ", 1)[0] + " 2"
    with pytest.raises(CaseFormatError, match=f"line {k + 1}: .*status must be 0 or 1"):
        parse_case("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("base 100", "base nan", "base must be finite, got 'nan'"),
        ("base 100", "base 0", "base must be > 0, got '0'"),
        ("base 100", "base -5", "base must be > 0, got '-5'"),
        ("branch 1 2 0 ", "branch 1 2 nan ", "r must be finite, got 'nan'"),
        ("branch 1 2 0 ", "branch 1 2 inf ", "r must be finite, got 'inf'"),
        ("gen 1 0 ", "gen 1 nan ", "p_min must be finite, got 'nan'"),
        ("10 0 1 0\n", "10 nan 1 0\n", "cost_a must be finite, got 'nan'"),
        ("10 0 1 0\n", "10 inf 1 0\n", "cost_a must be finite, got 'inf'"),
        ("0 0.1 0 1", "0 0.1x 0 1", "x: not a number: '0.1x'"),
    ],
)
def test_bad_numbers_rejected_by_field(old, new, message):
    lineno = TWO_BUS[: TWO_BUS.index(old)].count("\n") + 1
    with pytest.raises(CaseFormatError, match=f"^line {lineno}: {message}$"):
        parse_case(TWO_BUS.replace(old, new, 1))


@lru_cache
def _numeric_tokens(name: str):
    """The serialised lines of a bundled case, and (line, token) of every number."""
    lines = serialize_case(bundled_case(name)).splitlines()
    spots = []
    for i, line in enumerate(lines):
        for j, tok in enumerate(line.split()[1:], start=1):
            try:
                float(tok)
            except ValueError:
                continue
            spots.append((i, j))
    return lines, spots


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(["ds1", "ds2", "ds3", "ts30", "ieee33"]),
    pick=st.integers(min_value=0),
    bad=st.sampled_from(["nan", "inf", "-inf"]),
)
def test_any_non_finite_number_fails_on_its_line(name, pick, bad):
    lines, spots = _numeric_tokens(name)
    i, j = spots[pick % len(spots)]
    tokens = lines[i].split()
    tokens[j] = bad
    text = "\n".join(lines[:i] + [" ".join(tokens)] + lines[i + 1 :]) + "\n"
    with pytest.raises(CaseFormatError, match=f"^line {i + 1}: "):
        parse_case(text)


def test_build_integrated_names_unknown_ts_bus(ts30, ds1):
    bad = dataclasses.replace(ds1, pcc_map={1: ((1, 999),)})
    with pytest.raises(ValueError, match="unknown TS bus 999"):
        build_integrated(ts30, [bad])


# ------------------------------------------------------------- admittance


def test_admittance_single_reactance():
    case = parse_case(TWO_BUS)
    y = build_admittance(case)
    expect = np.array([[-10j, 10j], [10j, -10j]])
    assert np.allclose(y, expect, atol=1e-12)


def test_admittance_matches_stamping_oracle(toy3):
    assert np.allclose(build_admittance(toy3), stamp_ybus(toy3), atol=1e-12)


@pytest.mark.parametrize("name", ["ts30", "ds1", "ds2", "ds3", "ieee33", "integrated"])
def test_admittance_matches_stamping_oracle_fixtures(name, request):
    # same per-entry order of additions as the oracle, so equal to the bit
    case = request.getfixturevalue(name)
    assert np.array_equal(build_admittance(case), stamp_ybus(case))


@pytest.mark.parametrize("name", ["ts30", "ds1", "ds2", "ds3", "ieee33", "integrated"])
def test_end_flows_match_stamped_rows(name, request, rng):
    case = request.getfixturevalue(name)
    tab = case.branch_table
    n = case.n_bus
    v = rng.uniform(0.9, 1.1, (4, n)) * np.exp(1j * rng.uniform(-0.3, 0.3, (4, n)))
    sf, st = tab.end_flows(v)
    for k, vk in enumerate(v):
        one_f, one_t = tab.end_flows(vk)
        assert np.array_equal(one_f, sf[k]) and np.array_equal(one_t, st[k])
    closed = np.array([bool(br.status) for br in case.branches])
    rated = closed & np.array([br.s_max > 0 for br in case.branches])
    assert not np.any(sf[:, ~closed]) and not np.any(st[:, ~closed])
    yb, cidx = stamp_branch_rows(case)
    want = v[:, cidx] * np.conj(v @ yb.T)
    got = np.concatenate([sf[:, rated], st[:, rated]], axis=1)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_replace_rebuilds_derived_tables():
    case = bundled_case("ds1")
    y0 = case.ybus
    longer = dataclasses.replace(
        case, branches=[dataclasses.replace(br, x=2 * br.x) for br in case.branches]
    )
    assert not np.allclose(longer.ybus, y0)
    assert np.array_equal(longer.ybus, stamp_ybus(longer))
    first = case.buses[0].id
    assert case.bus_index(first) == 0
    flipped = dataclasses.replace(case, buses=list(reversed(case.buses)))
    assert flipped.bus_index(first) == case.n_bus - 1
    assert np.array_equal(flipped.ybus, stamp_ybus(flipped))


def test_tie_switch_locality(ds1):
    open_idx = next(i for i, br in enumerate(ds1.branches) if not br.status)
    branches = list(ds1.branches)
    branches[open_idx] = dataclasses.replace(branches[open_idx], status=1)
    closed = dataclasses.replace(ds1, branches=branches)
    diff = build_admittance(closed) - build_admittance(ds1)
    assert int(np.count_nonzero(diff)) == 4


def test_admittance_rows_sum_to_shunts(ds1):
    # no line charging anywhere in the feeder, so every row must cancel
    assert all(br.b_sh == 0 for br in ds1.branches)
    y = build_admittance(ds1)
    assert np.max(np.abs(y.sum(axis=1))) < 1e-9


# ----------------------------------------------------------------- charts


def test_rectangle_chart_facets():
    chart = polygon_from_vertices([(0, 0), (2, 0), (2, 2), (0, 2)])
    assert chart.a_pq.shape == (4, 2)
    assert chart.box == (0, 2, 0, 2)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 3, size=(500, 2))
    in_box = (pts[:, 0] >= 0) & (pts[:, 0] <= 2) & (pts[:, 1] >= 0) & (pts[:, 1] <= 2)
    got = np.array([_inside(chart, p, q, tol=0.0) for p, q in pts])
    assert np.array_equal(got, in_box)


def test_rectangle_chart_helper_matches_box():
    chart = rectangle_chart(-1.0, 3.0, 0.5, 2.0)
    assert chart.box == (-1.0, 3.0, 0.5, 2.0)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-2, 4, size=(400, 2))
    for p, q in pts:
        inside = -1.0 <= p <= 3.0 and 0.5 <= q <= 2.0
        assert _inside(chart, p, q, tol=0.0) == inside


def test_triangle_chart():
    chart = polygon_from_vertices([(0, 0), (2, 0), (0, 2)])
    assert len(chart.b_pq) == 3
    assert chart.box == (0, 2, 0, 2)
    assert _inside(chart, 0.5, 0.5)
    assert not _inside(chart, 1.9, 1.9)  # box corner beyond hypotenuse


def test_pentagon_vertices_sit_on_two_facets():
    verts = [(0.0, 0.0), (3.0, -0.5), (4.0, 1.5), (2.0, 3.0), (-0.5, 1.6)]
    chart = polygon_from_vertices(verts)
    for v in chart.vertices:
        margins = chart.a_pq @ np.asarray(v) - chart.b_pq
        assert np.max(margins) <= 1e-12
        assert int(np.sum(np.abs(margins) <= 1e-12)) == 2


def test_degenerate_polygons_rejected():
    with pytest.raises(ValueError):
        polygon_from_vertices([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(ValueError):
        polygon_from_vertices([(0, 0), (1, 0)])
    with pytest.raises(ValueError):  # reflex vertex
        polygon_from_vertices([(0, 0), (2, 0), (0.1, 0.1), (0, 2)])


def test_contains_centroid_and_oracle(ds3):
    charts = list(ds3.dg_charts.values()) + [
        polygon_from_vertices([(0, 0), (2, 0), (0, 2)]),
        rectangle_chart(0.0, 1.5, -0.5, 0.5),
    ]
    rng = np.random.default_rng(7)
    for chart in charts:
        cx = float(np.mean([v[0] for v in chart.vertices]))
        cy = float(np.mean([v[1] for v in chart.vertices]))
        assert _inside(chart, cx, cy)
        lo_p, hi_p, lo_q, hi_q = chart.box
        pts = rng.uniform((lo_p, lo_q), (hi_p, hi_q), size=(10_000, 2))
        margins = pts @ chart.a_pq.T - chart.b_pq
        # skip the measure-zero sliver where the two predicates may round apart
        clear = np.abs(np.max(margins, axis=1)) > 1e-7
        mine = np.max(margins[clear], axis=1) <= 0.0
        oracle = np.array([crossing_contains(chart.vertices, p, q) for p, q in pts[clear]])
        assert np.array_equal(mine, oracle)


# -------------------------------------------------------------- integration


def test_build_integrated_counts(ts30, ds1, ds2, ds3, integrated):
    # five coupling buses merge away: 30 + 3*33 - 5
    assert len(integrated.buses) == 124
    assert len(integrated.branches) == len(ts30.branches) + 3 * 37
    assert len(integrated.generators) == len(ts30.generators) + 11
    assert integrated.meta["n_ts_gen"] == len(ts30.generators)
    assert sorted(integrated.meta["dg_map"]) == [1, 2, 3]
    assert len(integrated.meta["dg_map"][1]) == 1
    assert len(integrated.meta["dg_map"][2]) == 5
    assert len(integrated.meta["dg_map"][3]) == 5


def test_build_integrated_preserves_load(ts30, ds1, ds2, ds3, integrated):
    total = sum(b.p_d for c in (ts30, ds1, ds2, ds3) for b in c.buses)
    assert np.isclose(sum(b.p_d for b in integrated.buses), total)
    total_q = sum(b.q_d for c in (ts30, ds1, ds2, ds3) for b in c.buses)
    assert np.isclose(sum(b.q_d for b in integrated.buses), total_q)


def test_build_integrated_empty_list_identity(ts30):
    assert build_integrated(ts30, []) is ts30


def test_build_integrated_rejects_occupied_pcc(ts30, ds1):
    bad = dataclasses.replace(
        ts30,
        generators=ts30.generators + [ts30.generators[0].__class__(
            bus=11, p_min=0, p_max=1, q_min=0, q_max=1
        )],
    )
    with pytest.raises(ValueError, match="carries a generator"):
        build_integrated(bad, [ds1])


def test_build_integrated_carries_charts(integrated, ds3):
    for key, chart in ds3.dg_charts.items():
        assert integrated.dg_charts[key] == chart


def test_charts_for_fills_rectangles(ds1):
    (chart,) = ds1.charts_for(1)
    g = ds1.generators[0]
    assert chart.box == (g.p_min, g.p_max, g.q_min, g.q_max)


def test_all_dg_charts_binds_declared_charts_only(integrated, ds1, ds2, ds3, ts30):
    assert ds1.all_dg_charts() == [] and ds2.all_dg_charts() == []  # no chart declared
    assert len(ts30.pcc_map) == 3 and ts30.all_dg_charts() == []
    assert ds3.all_dg_charts() == [ds3.dg_charts[(3, k)] for k in range(1, 6)]

    charts = integrated.all_dg_charts()
    assert len(charts) == 11 and sum(len(c.b_pq) for c in charts) == 64
    dg_map = integrated.meta["dg_map"]
    boxes = [
        rectangle_chart(g.p_min, g.p_max, g.q_min, g.q_max)
        for ds in (1, 2)
        for g in (integrated.generators[i] for i in dg_map[ds])
    ]
    assert charts == boxes + ds3.all_dg_charts()


def test_serialized_format_is_frozen():
    # column order and float formatting are pinned by the golden file
    golden = Path(__file__).parent / "golden" / "two_bus.case"
    text = golden.read_text()
    assert serialize_case(parse_case(text)) == text
