#!/usr/bin/env python
"""Regenerate the bundled case files deterministically.

Writes ieee33.case, ds1.case, ds2.case, ds3.case and ts30.case into
src/gridveil/cases/.  Run with --probe N to Monte-Carlo estimate the feasible
fraction of each distribution case's sampling box (slow, only for tuning).
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from gridveil.netmodel import (
    Branch,
    Bus,
    CostPoly,
    Generator,
    NetworkCase,
    polygon_from_vertices,
    serialize_case,
)

# 12.66 kV feeder on a 100 MVA system base
ZBASE_33 = 12.66**2 / 100.0

# from, to, R ohm, X ohm, load at `to` in kW, kvar
FEEDER33 = [
    (1, 2, 0.0922, 0.0470, 100, 60),
    (2, 3, 0.4930, 0.2511, 90, 40),
    (3, 4, 0.3660, 0.1864, 120, 80),
    (4, 5, 0.3811, 0.1941, 60, 30),
    (5, 6, 0.8190, 0.7070, 60, 20),
    (6, 7, 0.1872, 0.6188, 200, 100),
    (7, 8, 0.7114, 0.2351, 200, 100),
    (8, 9, 1.0300, 0.7400, 60, 20),
    (9, 10, 1.0440, 0.7400, 60, 20),
    (10, 11, 0.1966, 0.0650, 45, 30),
    (11, 12, 0.3744, 0.1238, 60, 35),
    (12, 13, 1.4680, 1.1550, 60, 35),
    (13, 14, 0.5416, 0.7129, 120, 80),
    (14, 15, 0.5910, 0.5260, 60, 10),
    (15, 16, 0.7463, 0.5450, 60, 20),
    (16, 17, 1.2890, 1.7210, 60, 20),
    (17, 18, 0.7320, 0.5740, 90, 40),
    (2, 19, 0.1640, 0.1565, 90, 40),
    (19, 20, 1.5042, 1.3554, 90, 40),
    (20, 21, 0.4095, 0.4784, 90, 40),
    (21, 22, 0.7089, 0.9373, 90, 40),
    (3, 23, 0.4512, 0.3083, 90, 50),
    (23, 24, 0.8980, 0.7091, 420, 200),
    (24, 25, 0.8960, 0.7011, 420, 200),
    (6, 26, 0.2030, 0.1034, 60, 25),
    (26, 27, 0.2842, 0.1447, 60, 25),
    (27, 28, 1.0590, 0.9337, 60, 20),
    (28, 29, 0.8042, 0.7006, 120, 70),
    (29, 30, 0.5075, 0.2585, 200, 600),
    (30, 31, 0.9744, 0.9630, 150, 70),
    (31, 32, 0.3105, 0.3619, 210, 100),
    (32, 33, 0.3410, 0.5302, 60, 40),
]

# normally-open tie switches
TIES33 = [
    (8, 21, 2.0, 2.0),
    (9, 15, 2.0, 2.0),
    (12, 22, 2.0, 2.0),
    (18, 33, 0.5, 0.5),
    (25, 29, 0.5, 0.5),
]

# MVA ratings, tuned so thermal limits bind for a noticeable share of the
# sampling box (the head branch sees the whole feeder plus DG exports)
RATING33 = {(1, 2): 4.0}
RATING33.update({k: 3.0 for k in [(2, 3), (2, 19), (3, 23), (23, 24), (24, 25)]})
RATING33.update({k: 2.5 for k in [(5, 6), (6, 7), (29, 30), (30, 31), (31, 32), (32, 33)]})
RATING33_DEFAULT = 3.0
RATING33_TIE = 2.5

# voltage service band inside the feeders; coupling buses use the PCC band
DS_V_BAND = (0.95, 1.05)
PCC_V_BAND = (0.95, 1.05)

DG_BOX = (0.0, 2.0, 0.0, 2.0)  # MW / MVAr capability rectangle
DG_BUSES_MULTI = (6, 13, 22, 25, 30)
CHART_SEED = 20240841


def _bus33(bid, kind, p_kw, q_kvar, pcc_v_band=PCC_V_BAND):
    lo, hi = pcc_v_band if kind == "pcc" else DS_V_BAND
    return Bus(
        id=bid, kind=kind, v_min=lo, v_max=hi, p_d=p_kw / 1000.0, q_d=q_kvar / 1000.0
    )


def feeder33(
    name: str,
    pcc_buses: dict[int, int] | None = None,
    ds_id: int = 0,
    dg_buses: tuple[int, ...] = (),
    ties_closed: bool = False,
    move_load: dict[int, int] | None = None,
    charts: dict[int, list[tuple[float, float]]] | None = None,
    pcc_v_band: tuple[float, float] = PCC_V_BAND,
    rating_scale: float = 1.0,
    dg_box: tuple[float, float, float, float] = DG_BOX,
    load_scale: float = 1.0,
) -> NetworkCase:
    load = {t: (load_scale * p, load_scale * q) for _, t, _, _, p, q in FEEDER33}
    load[1] = (0.0, 0.0)
    for src, dst in (move_load or {}).items():
        p, q = load[src]
        load[dst] = (load[dst][0] + p, load[dst][1] + q)
        load[src] = (0.0, 0.0)

    pcc_buses = pcc_buses or {}
    buses = []
    for bid in range(1, 34):
        if bid in pcc_buses:
            kind = "pcc"
        elif bid == 1 and not pcc_buses:
            kind = "slack"
        else:
            kind = "pq"
        p, q = load[bid]
        buses.append(_bus33(bid, kind, p, q, pcc_v_band))

    branches = []
    for f, t, r, x, _, _ in FEEDER33:
        branches.append(
            Branch(
                from_bus=f,
                to_bus=t,
                r=r / ZBASE_33,
                x=x / ZBASE_33,
                s_max=rating_scale * RATING33.get((f, t), RATING33_DEFAULT),
                status=1,
            )
        )
    for f, t, r, x in TIES33:
        branches.append(
            Branch(
                from_bus=f,
                to_bus=t,
                r=r / ZBASE_33,
                x=x / ZBASE_33,
                s_max=rating_scale * RATING33_TIE,
                status=1 if ties_closed else 0,
            )
        )

    p_lo, p_hi, q_lo, q_hi = dg_box
    gens = [Generator(bus=b, p_min=p_lo, p_max=p_hi, q_min=q_lo, q_max=q_hi) for b in dg_buses]

    pcc_map = {}
    if pcc_buses:
        pcc_map[ds_id] = tuple((ds_bus, ts_bus) for ds_bus, ts_bus in pcc_buses.items())

    dg_charts = {}
    for dg_id, verts in (charts or {}).items():
        dg_charts[(ds_id, dg_id)] = polygon_from_vertices(verts)

    return NetworkCase(
        name=name,
        base_mva=100.0,
        buses=buses,
        branches=branches,
        generators=gens,
        pcc_map=pcc_map,
        dg_charts=dg_charts,
    )


def random_charts(seed: int, n: int) -> dict[int, list[tuple[float, float]]]:
    """Frozen convex capability polygons inside the DG rectangle.

    Jittered octagons filling most of the box, so that the joint pass rate
    over five DGs stays moderate and the datasets keep both classes.
    """
    rng = np.random.default_rng(seed)
    p_lo, p_hi, q_lo, q_hi = DG_BOX
    cx, cy = (p_lo + p_hi) / 2, (q_lo + q_hi) / 2
    hx, hy = (p_hi - p_lo) / 2, (q_hi - q_lo) / 2
    out = {}
    for dg_id in range(1, n + 1):
        while True:
            angles = np.linspace(0.0, 2 * np.pi, 9)[:-1] + rng.uniform(-0.12, 0.12, 8)
            reach = 1.0 / np.maximum(np.abs(np.cos(angles)), np.abs(np.sin(angles)))
            rho = reach * rng.uniform(0.90, 1.0, 8)
            verts = [
                (round(cx + hx * r * np.cos(a), 4), round(cy + hy * r * np.sin(a), 4))
                for r, a in zip(rho, angles)
            ]
            try:
                polygon_from_vertices(verts)
            except ValueError:
                continue
            out[dg_id] = verts
            break
    return out


# ---------------------------------------------------------------------------
# 30-bus transmission case
# ---------------------------------------------------------------------------

LOAD30 = {
    2: (21.7, 12.7), 3: (2.4, 1.2), 4: (7.6, 1.6), 5: (94.2, 19.0),
    7: (22.8, 10.9), 8: (30.0, 30.0), 10: (5.8, 2.0), 12: (11.2, 7.5),
    14: (6.2, 1.6), 15: (8.2, 2.5), 16: (3.5, 1.8), 17: (9.0, 5.8),
    18: (3.2, 0.9), 19: (9.5, 3.4), 20: (2.2, 0.7), 21: (17.5, 11.2),
    23: (3.2, 1.6), 24: (8.7, 6.7), 26: (3.5, 2.3), 29: (2.4, 0.9),
    30: (10.6, 1.9),
}

# from, to, r, x, b, rating MVA, tap (0 -> line)
BRANCH30 = [
    (1, 2, 0.0192, 0.0575, 0.0528, 130, 0),
    (1, 3, 0.0452, 0.1652, 0.0408, 130, 0),
    (2, 4, 0.0570, 0.1737, 0.0368, 65, 0),
    (3, 4, 0.0132, 0.0379, 0.0084, 130, 0),
    (2, 5, 0.0472, 0.1983, 0.0418, 130, 0),
    (2, 6, 0.0581, 0.1763, 0.0374, 65, 0),
    (4, 6, 0.0119, 0.0414, 0.0090, 90, 0),
    (5, 7, 0.0460, 0.1160, 0.0204, 70, 0),
    (6, 7, 0.0267, 0.0820, 0.0170, 130, 0),
    (6, 8, 0.0120, 0.0420, 0.0090, 32, 0),
    (6, 9, 0.0, 0.2080, 0.0, 65, 0.978),
    (6, 10, 0.0, 0.5560, 0.0, 32, 0.969),
    (9, 11, 0.0, 0.2080, 0.0, 65, 0),
    (9, 10, 0.0, 0.1100, 0.0, 65, 0),
    (4, 12, 0.0, 0.2560, 0.0, 65, 0.932),
    (12, 13, 0.0, 0.1400, 0.0, 65, 0),
    (12, 14, 0.1231, 0.2559, 0.0, 32, 0),
    (12, 15, 0.0662, 0.1304, 0.0, 32, 0),
    (12, 16, 0.0945, 0.1987, 0.0, 32, 0),
    (14, 15, 0.2210, 0.1997, 0.0, 16, 0),
    (16, 17, 0.0524, 0.1923, 0.0, 16, 0),
    (15, 18, 0.1073, 0.2185, 0.0, 16, 0),
    (18, 19, 0.0639, 0.1292, 0.0, 16, 0),
    (19, 20, 0.0340, 0.0680, 0.0, 32, 0),
    (10, 20, 0.0936, 0.2090, 0.0, 32, 0),
    (10, 17, 0.0324, 0.0845, 0.0, 32, 0),
    (10, 21, 0.0348, 0.0749, 0.0, 32, 0),
    (10, 22, 0.0727, 0.1499, 0.0, 32, 0),
    (21, 22, 0.0116, 0.0236, 0.0, 32, 0),
    (15, 23, 0.1000, 0.2020, 0.0, 16, 0),
    (22, 24, 0.1150, 0.1790, 0.0, 16, 0),
    (23, 24, 0.1320, 0.2700, 0.0, 16, 0),
    (24, 25, 0.1885, 0.3292, 0.0, 16, 0),
    (25, 26, 0.2544, 0.3800, 0.0, 16, 0),
    (25, 27, 0.1093, 0.2087, 0.0, 16, 0),
    (28, 27, 0.0, 0.3960, 0.0, 65, 0.968),
    (27, 29, 0.2198, 0.4153, 0.0, 16, 0),
    (27, 30, 0.3202, 0.6027, 0.0, 16, 0),
    (29, 30, 0.2399, 0.4533, 0.0, 16, 0),
    (8, 28, 0.0636, 0.2000, 0.0428, 32, 0),
    (6, 28, 0.0169, 0.0599, 0.0130, 32, 0),
]

# bus, p_max, q_min, q_max, cost a, cost b
GEN30 = [
    (1, 360.2, -20.0, 150.0, 0.00375, 2.00),
    (2, 140.0, -40.0, 50.0, 0.01750, 1.75),
    (5, 100.0, -40.0, 40.0, 0.06250, 1.00),
    (8, 100.0, -10.0, 40.0, 0.00834, 3.25),
    (13, 100.0, -6.0, 24.0, 0.02500, 3.00),
]

PCC_BUSES_TS = (11, 16, 17, 19, 20)
TS_V_BAND = (0.94, 1.06)


def ts30_case() -> NetworkCase:
    gen_buses = {g[0] for g in GEN30}
    buses = []
    for bid in range(1, 31):
        if bid in PCC_BUSES_TS:
            kind, band, load = "pcc", PCC_V_BAND, (0.0, 0.0)
        else:
            kind = "slack" if bid == 1 else ("pv" if bid in gen_buses else "pq")
            band = TS_V_BAND
            load = LOAD30.get(bid, (0.0, 0.0))
        buses.append(
            Bus(id=bid, kind=kind, v_min=band[0], v_max=band[1], p_d=load[0], q_d=load[1])
        )
    branches = [
        Branch(from_bus=f, to_bus=t, r=r, x=x, b_sh=b, tap=tap, s_max=rate, status=1)
        for f, t, r, x, b, rate, tap in BRANCH30
    ]
    gens = [
        Generator(bus=b, p_min=0.0, p_max=pmax, q_min=qmin, q_max=qmax, cost=CostPoly(a, c2))
        for b, pmax, qmin, qmax, a, c2 in GEN30
    ]
    # which PCC buses belong to which distribution system (interconnection
    # data, known on the transmission side)
    pcc_map = {1: ((11, 11),), 2: ((16, 16), (17, 17)), 3: ((19, 19), (20, 20))}
    return NetworkCase(
        name="ts30",
        base_mva=100.0,
        buses=buses,
        branches=branches,
        generators=gens,
        pcc_map=pcc_map,
    )


def build_all() -> dict[str, NetworkCase]:
    charts3 = random_charts(CHART_SEED, len(DG_BUSES_MULTI))
    return {
        "ieee33": feeder33("ieee33"),
        # light-load radial feeder: DG hosting capacity at the lateral end is
        # the only binding limit, so the feasible region is a clean voltage
        # rise surface with both classes well represented
        "ds1": feeder33(
            "ds1",
            pcc_buses={1: 11},
            ds_id=1,
            dg_buses=(18,),
            ties_closed=False,
            load_scale=0.4,
            pcc_v_band=(0.99, 1.05),
            dg_box=(0.0, 1.5, 0.0, 1.0),
            rating_scale=2.0,
        ),
        "ds2": feeder33(
            "ds2",
            pcc_buses={1: 16, 18: 17},
            ds_id=2,
            dg_buses=DG_BUSES_MULTI,
            ties_closed=True,
            move_load={18: 17},
        ),
        "ds3": feeder33(
            "ds3",
            pcc_buses={1: 19, 18: 20},
            ds_id=3,
            dg_buses=DG_BUSES_MULTI,
            ties_closed=True,
            move_load={18: 17},
            charts=charts3,
        ),
        "ts30": ts30_case(),
    }


def probe_feasible_fraction(case: NetworkCase, n: int, seed: int = 7) -> float:
    from gridveil.sampling import sample_space
    from gridveil.powerflow import ds_response_batch

    space = sample_space(case)
    rng = np.random.default_rng(seed)
    x = rng.uniform(space.x_min, space.x_max, (n, space.n_x))
    label, _, _ = ds_response_batch(case, x)
    return int(np.sum(label == 0)) / n


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="output directory for .case files")
    ap.add_argument("--probe", type=int, default=0, help="samples for feasibility probe")
    args = ap.parse_args()

    out = Path(args.out) if args.out else Path(__file__).resolve().parents[1] / "src/gridveil/cases"
    out.mkdir(parents=True, exist_ok=True)
    cases = build_all()
    for name, case in cases.items():
        path = out / f"{name}.case"
        path.write_text(serialize_case(case))
        print(f"wrote {path} ({case.n_bus} buses, {len(case.branches)} branches, {case.n_gen} gens)")

    if args.probe:
        for name in ("ds1", "ds2", "ds3"):
            frac = probe_feasible_fraction(cases[name], args.probe)
            print(f"{name}: feasible fraction {frac:.3f} over {args.probe} samples")


if __name__ == "__main__":
    main()
