"""Power-system data model: case files, admittance, PQ charts, TS+DS assembly.

Buses, branches and generators are plain frozen dataclasses collected in a
:class:`NetworkCase`.  Cases are read from a line-oriented text format (see
``parse_case``) and are treated as immutable once constructed, so they can be
shared freely across worker processes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

BUS_KINDS = ("slack", "pv", "pq", "pcc")


class CaseFormatError(ValueError):
    """Raised on malformed case text; message carries the 1-based line number."""


@dataclass(frozen=True)
class Bus:
    id: int
    kind: str = "pq"
    v_min: float = 0.95
    v_max: float = 1.05
    theta_min: float = -math.pi / 2
    theta_max: float = math.pi / 2
    p_d: float = 0.0  # MW
    q_d: float = 0.0  # MVAr

    def __post_init__(self):
        if self.kind not in BUS_KINDS:
            raise ValueError(f"bus {self.id}: unknown kind {self.kind!r}")
        if not self.v_min < self.v_max:
            raise ValueError(f"bus {self.id}: v_min must be < v_max")
        if not (math.isfinite(self.p_d) and math.isfinite(self.q_d)):
            raise ValueError(f"bus {self.id}: demand must be finite")


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    r: float
    x: float
    b_sh: float = 0.0  # total line charging, p.u.
    tap: float = 1.0
    s_max: float = 0.0  # MVA; 0 disables the flow limit
    status: int = 1  # 1 closed, 0 open

    def __post_init__(self):
        if self.r < 0:
            raise ValueError(f"branch {self.from_bus}-{self.to_bus}: r must be >= 0")
        if self.x == 0:
            raise ValueError(f"branch {self.from_bus}-{self.to_bus}: x must be nonzero")
        if self.status not in (0, 1):
            raise ValueError(f"branch {self.from_bus}-{self.to_bus}: status must be 0 or 1")


@dataclass(frozen=True)
class CostPoly:
    """Quadratic generation cost a*p^2 + b*p + c with p in MW."""

    a: float = 0.0  # $/MW^2 h
    b: float = 0.0  # $/MWh
    c: float = 0.0  # $/h

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("cost curvature a must be >= 0 (convex cost)")

    def __call__(self, p_mw: float) -> float:
        return self.a * p_mw * p_mw + self.b * p_mw + self.c


@dataclass(frozen=True)
class Generator:
    bus: int
    p_min: float
    p_max: float
    q_min: float
    q_max: float
    cost: CostPoly = CostPoly()

    def __post_init__(self):
        if self.p_min > self.p_max or self.q_min > self.q_max:
            raise ValueError(f"generator at bus {self.bus}: empty box limits")


@dataclass(frozen=True)
class PQChart:
    """Convex-polygon capability set of one DG.

    ``vertices`` are counter-clockwise (p, q) points in MW/MVAr.  The facet
    system ``a_pq @ [p, q] <= b_pq`` (one row per edge) and the tight
    axis-aligned bounding box are derived on construction.
    """

    vertices: tuple[tuple[float, float], ...]
    a_pq: np.ndarray = field(compare=False, repr=False, default=None)
    b_pq: np.ndarray = field(compare=False, repr=False, default=None)
    box: tuple[float, float, float, float] = field(compare=False, default=None)

    def __post_init__(self):
        a, b, box = _facets_ccw(self.vertices)
        object.__setattr__(self, "a_pq", a)
        object.__setattr__(self, "b_pq", b)
        object.__setattr__(self, "box", box)


def _facets_ccw(vertices):
    pts = np.asarray(vertices, dtype=float)
    d = np.roll(pts, -1, axis=0) - pts
    cross = d[:, 0] * np.roll(d, -1, axis=0)[:, 1] - d[:, 1] * np.roll(d, -1, axis=0)[:, 0]
    if np.any(cross <= 0):
        raise ValueError("vertices do not form a strictly convex CCW polygon")
    # outward normal of CCW edge (dx, dy) is (dy, -dx)
    a = np.column_stack([d[:, 1], -d[:, 0]])
    norms = np.hypot(a[:, 0], a[:, 1])
    a = a / norms[:, None]
    b = np.einsum("ij,ij->i", a, pts)
    box = (pts[:, 0].min(), pts[:, 0].max(), pts[:, 1].min(), pts[:, 1].max())
    return a, b, box


def polygon_from_vertices(vertices) -> PQChart:
    """Build a PQChart from >=3 vertices of a convex polygon (any order)."""
    pts = [(float(p), float(q)) for p, q in vertices]
    if len(pts) < 3:
        raise ValueError("need at least 3 vertices")
    arr = np.asarray(pts)
    cx, cy = arr.mean(axis=0)
    order = np.argsort(np.arctan2(arr[:, 1] - cy, arr[:, 0] - cx))
    ordered = tuple(pts[i] for i in order)
    return PQChart(vertices=ordered)  # convexity enforced in __post_init__


def rectangle_chart(p_min, p_max, q_min, q_max) -> PQChart:
    return polygon_from_vertices(
        [(p_min, q_min), (p_max, q_min), (p_max, q_max), (p_min, q_max)]
    )


@dataclass
class NetworkCase:
    """A transmission or distribution case (or the integrated combination).

    ``pcc_map`` maps a DS id to its ordered PCC couplings as
    ``((ds_bus, ts_bus), ...)``; in a standalone DS case the ds_bus ids are
    local, in an integrated case they equal the merged TS bus ids.
    ``dg_charts`` maps (ds_id, dg_index) to the DG's PQ chart; DGs without a
    chart row get their rectangle box on demand (``charts_for``).
    ``meta`` carries provenance of an integrated case (per-DS bus and branch
    ownership) and never round-trips through case files.  The bus index, the
    branch table, the admittance matrix and a single-DS case's Newton pattern
    are derived from the fields on first use, so ``dataclasses.replace``
    always starts from fresh ones.
    """

    name: str
    base_mva: float
    buses: list[Bus]
    branches: list[Branch]
    generators: list[Generator]
    pcc_map: dict[int, tuple[tuple[int, int], ...]] = field(default_factory=dict)
    dg_charts: dict[tuple[int, int], PQChart] = field(default_factory=dict)
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def n_gen(self) -> int:
        return len(self.generators)

    @cached_property
    def _bus_positions(self) -> dict[int, int]:
        return {b.id: i for i, b in enumerate(self.buses)}

    def bus_index(self, bus_id: int) -> int:
        return self._bus_positions[bus_id]

    def bus(self, bus_id: int) -> Bus:
        return self.buses[self.bus_index(bus_id)]

    @cached_property
    def branch_table(self) -> BranchTable:
        return BranchTable.of(self)

    @cached_property
    def ybus(self) -> np.ndarray:
        return build_admittance(self)

    @cached_property
    def newton_pattern(self):
        """The Newton system of this single-DS case and its sparse LU order."""
        from .powerflow import NewtonPattern  # powerflow imports this module

        return NewtonPattern(self)

    def slack_buses(self) -> list[int]:
        return [b.id for b in self.buses if b.kind == "slack"]

    def gen_incidence(self) -> np.ndarray:
        """n_bus x n_gen 0/1 matrix mapping generators to buses."""
        k = np.zeros((self.n_bus, self.n_gen))
        for g_idx, g in enumerate(self.generators):
            k[self.bus_index(g.bus), g_idx] = 1.0
        return k

    def charts_for(self, ds_id: int, dg_indices: list[int] | None = None) -> list[PQChart]:
        """Charts of the DGs of one DS, rectangles filled in from gen boxes."""
        if dg_indices is None:
            dg_indices = list(range(self.n_gen))
        out = []
        for k, g_idx in enumerate(dg_indices):
            chart = self.dg_charts.get((ds_id, k + 1))
            if chart is None:
                g = self.generators[g_idx]
                chart = rectangle_chart(g.p_min, g.p_max, g.q_min, g.q_max)
            out.append(chart)
        return out

    def all_dg_charts(self) -> list[PQChart]:
        """The charts that bind this case's DGs in an OPF.

        None when the case declares no chart.  Otherwise one per DG, the
        rectangle of its generator box where it has no chart of its own: for
        an integrated case DS by DS in ascending id, the order of the standard
        OPF's DG columns (``dg_gens``); for a single-DS case its generators.
        A case with any other number of PCC blocks, a TS alone, has no DGs.
        """
        if not self.dg_charts:
            return []
        if "dg_map" in self.meta:
            dg_map = self.meta["dg_map"]
            return [c for ds in sorted(dg_map) for c in self.charts_for(ds, dg_map[ds])]
        if len(self.pcc_map) == 1:
            return self.charts_for(next(iter(self.pcc_map)))
        return []

    def text_hash(self) -> str:
        return hashlib.sha256(serialize_case(self).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class BranchTable:
    """The pi model of every branch of a case, stamped once.

    Branch k joins bus positions f[k] and t[k]; with the from-side tap ratio
    tau, series admittance y and total charging b, the currents entering it
    are I_f = yff V_f + yft V_t and I_t = ytf V_f + ytt V_t, where
    yff = (y + j b/2) / tau^2, yft = ytf = -y / tau and ytt = y + j b/2.
    Open branches carry zero admittances.  Ybus is summed from these
    vectors, and ``end_flows`` and ``acopf.BranchSet`` read them directly.
    """

    f: np.ndarray
    t: np.ndarray
    closed: np.ndarray  # bool
    rated: np.ndarray  # bool: closed with s_max > 0
    s_max: np.ndarray  # MVA
    yff: np.ndarray
    yft: np.ndarray
    ytf: np.ndarray
    ytt: np.ndarray

    @classmethod
    def of(cls, case: NetworkCase) -> BranchTable:
        pos = case._bus_positions
        f, t, closed, s_max, y = [], [], [], [], []  # y: yff, yft, ytf, ytt per branch
        for br in case.branches:
            f.append(pos[br.from_bus])
            t.append(pos[br.to_bus])
            closed.append(bool(br.status))
            s_max.append(br.s_max)
            if not br.status:
                y.extend((0j, 0j, 0j, 0j))
                continue
            # Python complex scalars: numpy's vector division rounds differently
            ys = 1.0 / complex(br.r, br.x)
            bc = 1j * br.b_sh / 2.0
            tau = br.tap if br.tap not in (0.0, 0) else 1.0
            y.extend(((ys + bc) / tau**2, -ys / tau, -ys / tau, ys + bc))
        closed = np.array(closed, dtype=bool)
        s_max = np.array(s_max, dtype=float)
        yff, yft, ytf, ytt = np.array(y, dtype=complex).reshape(-1, 4).T
        f, t = np.array(f, dtype=int), np.array(t, dtype=int)
        return cls(f, t, closed, closed & (s_max > 0), s_max, yff, yft, ytf, ytt)

    def end_flows(self, v: np.ndarray):
        """Complex power entering every branch at its from and to ends, p.u.

        v holds bus voltages along its last axis: one vector or a batch.
        """
        vf, vt = v[..., self.f], v[..., self.t]
        s_f = vf * np.conj(self.yff * vf + self.yft * vt)
        s_t = vt * np.conj(self.ytf * vf + self.ytt * vt)
        return s_f, s_t


def build_admittance(case: NetworkCase) -> np.ndarray:
    """Standard pi-model bus admittance matrix (dense, complex, p.u.).

    Every branch adds its four ``BranchTable`` entries, in branch order; those
    of an open branch are zero and leave every entry as it was.
    """
    tab = case.branch_table
    n = case.n_bus
    f, t = tab.f, tab.t
    pos = np.array([f * n + f, t * n + t, f * n + t, t * n + f]).T.ravel()
    vals = np.array([tab.yff, tab.ytt, tab.yft, tab.ytf]).T.ravel()
    y = np.zeros(n * n, dtype=complex)
    np.add.at(y, pos, vals)
    return y.reshape(n, n)


# ---------------------------------------------------------------------------
# Case file format
# ---------------------------------------------------------------------------
#
# Line-oriented UTF-8 text, `#` starts a comment, rows are whitespace-split:
#
#   case <name>
#   base <base_mva>
#   bus <id> <kind> <v_min> <v_max> <theta_min> <theta_max> <p_d> <q_d>
#   branch <from> <to> <r> <x> <b_sh> <tap> <s_max> <status>
#   gen <bus> <p_min> <p_max> <q_min> <q_max> <cost_a> <cost_b> <cost_c>
#   dgchart <ds_id> <dg_id> <p1> <q1> <p2> <q2> ...
#   pcc <ds_id> <ds_bus_id> <ts_bus_id> <order>
#
# r/x/b_sh are p.u. on base_mva; demand and generator limits are MW/MVAr.
# The exact column order is frozen by a golden-file test.

_BUS_FIELDS = 8
_BRANCH_FIELDS = 8
_GEN_FIELDS = 8
_BUS_NUMBERS = ("v_min", "v_max", "theta_min", "theta_max", "p_d", "q_d")
_BRANCH_NUMBERS = ("r", "x", "b_sh", "tap", "s_max")
_GEN_NUMBERS = ("p_min", "p_max", "q_min", "q_max", "cost_a", "cost_b", "cost_c")


def _numbers(tokens: list[str], names) -> list[float]:
    """The real numbers of one case row; a bad or non-finite one is named."""
    out = []
    for tok, name in zip(tokens, names):
        try:
            value = float(tok)
        except ValueError:
            raise ValueError(f"{name}: not a number: {tok!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {tok!r}")
        out.append(value)
    return out


def parse_case(text: str, name: str = "case") -> NetworkCase:
    """Parse the documented case format; raises CaseFormatError with line numbers."""
    base_mva = 100.0
    case_name = name
    buses: list[Bus] = []
    branches: list[tuple[int, Branch]] = []
    gens: list[tuple[int, Generator]] = []
    chart_rows: list[tuple[int, int, int, list[float]]] = []
    pcc_rows: list[tuple[int, int, int, int, int]] = []
    seen_bus_ids: set[int] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        kw, args = tok[0], tok[1:]
        try:
            if kw == "case":
                case_name = args[0]
            elif kw == "base":
                (base_mva,) = _numbers([args[0]], ["base"])
                if base_mva <= 0:
                    raise ValueError(f"base must be > 0, got {args[0]!r}")
            elif kw == "bus":
                if len(args) != _BUS_FIELDS:
                    raise ValueError(f"expected {_BUS_FIELDS} bus fields")
                bid = int(args[0])
                if bid in seen_bus_ids:
                    raise ValueError(f"duplicate bus id {bid}")
                seen_bus_ids.add(bid)
                buses.append(Bus(bid, args[1], *_numbers(args[2:], _BUS_NUMBERS)))
            elif kw == "branch":
                if len(args) != _BRANCH_FIELDS:
                    raise ValueError(f"expected {_BRANCH_FIELDS} branch fields")
                nums = _numbers(args[2:7], _BRANCH_NUMBERS)
                branches.append((lineno, Branch(int(args[0]), int(args[1]), *nums, int(args[7]))))
            elif kw == "gen":
                if len(args) != _GEN_FIELDS:
                    raise ValueError(f"expected {_GEN_FIELDS} gen fields")
                p_min, p_max, q_min, q_max, a, b, c = _numbers(args[1:], _GEN_NUMBERS)
                gens.append(
                    (lineno, Generator(int(args[0]), p_min, p_max, q_min, q_max, CostPoly(a, b, c)))
                )
            elif kw == "dgchart":
                ds_id, dg_id = int(args[0]), int(args[1])
                names = [f"{'pq'[i % 2]}{i // 2 + 1}" for i in range(len(args) - 2)]
                vals = _numbers(args[2:], names)
                if len(vals) < 6 or len(vals) % 2:
                    raise ValueError("dgchart needs >=3 (p, q) vertex pairs")
                chart_rows.append((lineno, ds_id, dg_id, vals))
            elif kw == "pcc":
                pcc_rows.append(
                    (lineno, int(args[0]), int(args[1]), int(args[2]), int(args[3]))
                )
            else:
                raise ValueError(f"unknown section keyword {kw!r}")
        except CaseFormatError:
            raise
        except (ValueError, IndexError) as exc:
            raise CaseFormatError(f"line {lineno}: {exc}") from exc

    bus_ids = {b.id for b in buses}
    for lineno, br in branches:
        for end in (br.from_bus, br.to_bus):
            if end not in bus_ids:
                raise CaseFormatError(f"line {lineno}: unknown bus {end}")
    for lineno, g in gens:
        if g.bus not in bus_ids:
            raise CaseFormatError(f"line {lineno}: unknown bus {g.bus}")

    dg_charts = {}
    for lineno, ds_id, dg_id, vals in chart_rows:
        if not 1 <= dg_id <= len(gens):
            raise CaseFormatError(f"line {lineno}: unknown DG {dg_id} (case has {len(gens)})")
        try:
            verts = list(zip(vals[0::2], vals[1::2]))
            dg_charts[(ds_id, dg_id)] = polygon_from_vertices(verts)
        except ValueError as exc:
            raise CaseFormatError(f"line {lineno}: {exc}") from exc

    pcc_map: dict[int, list[tuple[int, int, int]]] = {}
    for lineno, ds_id, ds_bus, ts_bus, order in pcc_rows:
        if ds_bus not in bus_ids:
            raise CaseFormatError(f"line {lineno}: unknown bus {ds_bus}")
        rows = pcc_map.setdefault(ds_id, [])
        if any(ds_bus == seen for _, seen, _ in rows):
            raise CaseFormatError(f"line {lineno}: DS {ds_id} lists bus {ds_bus} twice")
        rows.append((order, ds_bus, ts_bus))
    pcc_final = {
        ds: tuple((d, t) for _, d, t in sorted(rows)) for ds, rows in pcc_map.items()
    }

    return NetworkCase(
        name=case_name,
        base_mva=base_mva,
        buses=buses,
        branches=[br for _, br in branches],
        generators=[g for _, g in gens],
        pcc_map=pcc_final,
        dg_charts=dg_charts,
    )


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def serialize_case(case: NetworkCase) -> str:
    """Emit the case in the documented format; parse(serialize(c)) == c."""
    out = [f"case {case.name}", f"base {_fmt(case.base_mva)}"]
    for b in case.buses:
        out.append(
            "bus "
            + " ".join(
                [str(b.id), b.kind]
                + [_fmt(v) for v in (b.v_min, b.v_max, b.theta_min, b.theta_max, b.p_d, b.q_d)]
            )
        )
    for br in case.branches:
        out.append(
            "branch "
            + " ".join(
                [str(br.from_bus), str(br.to_bus)]
                + [_fmt(v) for v in (br.r, br.x, br.b_sh, br.tap, br.s_max)]
                + [str(br.status)]
            )
        )
    for g in case.generators:
        out.append(
            "gen "
            + " ".join(
                [str(g.bus)]
                + [_fmt(v) for v in (g.p_min, g.p_max, g.q_min, g.q_max)]
                + [_fmt(v) for v in (g.cost.a, g.cost.b, g.cost.c)]
            )
        )
    for (ds_id, dg_id), chart in sorted(case.dg_charts.items()):
        flat = " ".join(_fmt(v) for pq in chart.vertices for v in pq)
        out.append(f"dgchart {ds_id} {dg_id} {flat}")
    for ds_id in sorted(case.pcc_map):
        for order, (ds_bus, ts_bus) in enumerate(case.pcc_map[ds_id], start=1):
            out.append(f"pcc {ds_id} {ds_bus} {ts_bus} {order}")
    return "\n".join(out) + "\n"


def load_case(path) -> NetworkCase:
    p = Path(path)
    return parse_case(p.read_text(), name=p.stem)


def bundled_case(name: str) -> NetworkCase:
    """Load one of the cases shipped with the package (e.g. 'ieee33', 'ds1')."""
    text = resources.files("gridveil.cases").joinpath(f"{name}.case").read_text()
    return parse_case(text, name=name)


# ---------------------------------------------------------------------------
# TS + DS assembly
# ---------------------------------------------------------------------------


def build_integrated(ts: NetworkCase, ds_list: list[NetworkCase]) -> NetworkCase:
    """Merge DS cases onto the TS at their PCC buses.

    Every DS coupling bus is merged onto (replaced by) the declared TS bus,
    which must be an empty `pcc` bus; remaining DS buses are renumbered after
    the TS range.  DS slack definitions are dropped, DG generators and charts
    carry over.  ``meta`` records per-DS bus ownership for later accounting.
    """
    if not ds_list:
        return ts

    buses = list(ts.buses)
    branches = list(ts.branches)
    generators = list(ts.generators)
    branch_ds: list[int | None] = [None] * len(ts.branches)
    charts = {}
    pcc_final: dict[int, tuple[tuple[int, int], ...]] = {}
    dg_map: dict[int, list[int]] = {}
    ds_buses: dict[int, list[int]] = {}
    ts_gen_buses = {g.bus for g in ts.generators}

    next_id = max(b.id for b in ts.buses) + 1
    for ds in ds_list:
        if len(ds.pcc_map) != 1:
            raise ValueError(f"DS case {ds.name!r} must declare exactly one pcc block")
        ds_id, couplings = next(iter(ds.pcc_map.items()))
        id_of: dict[int, int] = {}
        for ds_bus, ts_bus in couplings:
            try:
                ts_b = ts.bus(ts_bus)
            except KeyError:
                raise ValueError(f"DS {ds_id}: unknown TS bus {ts_bus}") from None
            if ts_b.kind != "pcc":
                raise ValueError(f"TS bus {ts_bus} is not a pcc bus")
            if ts_b.p_d != 0 or ts_b.q_d != 0:
                raise ValueError(f"PCC bus {ts_bus} carries load")
            if ts_bus in ts_gen_buses:
                raise ValueError(f"PCC bus {ts_bus} carries a generator")
            ds_b = ds.bus(ds_bus)
            if ds_b.p_d != 0 or ds_b.q_d != 0:
                raise ValueError(f"DS {ds_id} coupling bus {ds_bus} carries load")
            id_of[ds_bus] = ts_bus
            # tighten the merged voltage band to the intersection of both sides
            i = next(i for i, b in enumerate(buses) if b.id == ts_bus)
            buses[i] = replace(
                buses[i],
                v_min=max(ts_b.v_min, ds_b.v_min),
                v_max=min(ts_b.v_max, ds_b.v_max),
            )
        own = []
        for b in ds.buses:
            if b.id in id_of:
                continue
            id_of[b.id] = next_id
            own.append(next_id)
            buses.append(replace(b, id=next_id, kind="pq"))
            next_id += 1
        for br in ds.branches:
            branches.append(
                replace(br, from_bus=id_of[br.from_bus], to_bus=id_of[br.to_bus])
            )
            branch_ds.append(ds_id)
        dg_idx = []
        for g in ds.generators:
            dg_idx.append(len(generators))
            generators.append(replace(g, bus=id_of[g.bus]))
        dg_map[ds_id] = dg_idx
        ds_buses[ds_id] = own
        for (cid, dg_id), chart in ds.dg_charts.items():
            charts[(cid, dg_id)] = chart
        pcc_final[ds_id] = tuple((ts_bus, ts_bus) for _, ts_bus in couplings)

    return NetworkCase(
        name=f"{ts.name}+{'+'.join(d.name for d in ds_list)}",
        base_mva=ts.base_mva,
        buses=buses,
        branches=branches,
        generators=generators,
        pcc_map=pcc_final,
        dg_charts=charts,
        meta={
            "ds_buses": ds_buses,
            "branch_ds": branch_ds,
            "dg_map": dg_map,
            "n_ts_gen": len(ts.generators),
        },
    )
