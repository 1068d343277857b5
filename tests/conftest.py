import numpy as np
import pytest

from gridveil.acopf import KktBlocks
from gridveil.netmodel import CostPoly, build_integrated, bundled_case, parse_case
from gridveil.sampling import generate_dataset, split_dataset
from gridveil.surrogate import TrainConfig, fit_pcc, offer_bundle, train_fr

from oracles import dense_form_args

# Three-bus network with a pinned slack voltage, one cheap remote generator
# and generous line ratings: small enough for exhaustive grid search, rich
# enough (losses, reactive limits, line charging) to exercise the assembler.
TOY3_TEXT = """
case toy3
base 100
bus 1 slack 0.9999 1.0001 -1.5707963267948966 1.5707963267948966 0 0
bus 2 pv 0.95 1.05 -1.5707963267948966 1.5707963267948966 20 5
bus 3 pq 0.95 1.05 -1.5707963267948966 1.5707963267948966 60 20
branch 1 2 0.02 0.06 0 1 120 1
branch 2 3 0.025 0.08 0 1 100 1
branch 1 3 0.03 0.09 0.02 1 100 1
gen 1 0 200 -100 100 0.02 30 0
gen 2 0 60 -40 40 0.015 10 0
"""


@pytest.fixture(scope="session")
def toy3():
    return parse_case(TOY3_TEXT, name="toy3")


@pytest.fixture(scope="session")
def ds1():
    return bundled_case("ds1")


@pytest.fixture(scope="session")
def ds2():
    return bundled_case("ds2")


@pytest.fixture(scope="session")
def ds3():
    return bundled_case("ds3")


@pytest.fixture(scope="session")
def ts30():
    return bundled_case("ts30")


@pytest.fixture(scope="session")
def ieee33():
    return bundled_case("ieee33")


@pytest.fixture(scope="session")
def integrated(ts30, ds1, ds2, ds3):
    return build_integrated(ts30, [ds1, ds2, ds3])


def train_bundle(case, n_samples: int, n_h: int, cfg: TrainConfig):
    """Sample (seed 100 + the DS id), train and wrap one DS into a disclosure bundle."""
    data = generate_dataset(case, n_samples, seed=100 + case.single_ds()[0], jobs=1)
    train, _ = split_dataset(data, 0.2, seed=7)
    fr = train_fr(train, n_h=n_h, w_10=2.0, w_01=1.0, hyper=cfg)
    costs = [CostPoly(0.02, 20.0)] * case.n_gen
    return offer_bundle(case, fr, fit_pcc(train, case.base_mva), costs)


@pytest.fixture(scope="session")
def quick_bundles(ds1, ds2, ds3):
    """Small but usable bundles for the coupled-OPF and benchmark tests."""
    b1 = train_bundle(ds1, 2000, 12, TrainConfig(lr=3e-3, epochs=150, seed=3, restarts=2))
    cfg = TrainConfig(lr=1e-2, lr_min=1e-4, epochs=150, patience=10**9, seed=3)
    return {1: b1, 2: train_bundle(ds2, 6000, 60, cfg), 3: train_bundle(ds3, 6000, 60, cfg)}


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def kkt_systems(monkeypatch):
    """Every Newton system that solve_nlp forms, with the step it solved for.

    One record per solve of the blocks: the problem, the blocks, the form
    arguments with H, Jg and Jh densified through the problem's patterns
    (oracles.dense_form_args), the right-hand side (r_x, r_g), the regularization,
    the returned (dx, dlam), and copies of the diagonal blocks (with the
    regularized diagonal the solve wrote) and strips it solved.
    """
    records = []
    init, form, solve = KktBlocks.__init__, KktBlocks.form, KktBlocks.solve

    def spy_init(self, problem, *args):
        init(self, problem, *args)
        self.problem = problem

    def spy_form(self, *args):
        neq = sum(len(e) for _, e in self.parts)
        self.form_args = dense_form_args(self.problem, neq, *args)
        form(self, *args)

    def spy_solve(self, r_x, r_g, reg):
        step = solve(self, r_x, r_g, reg)
        records.append(
            dict(
                problem=self.problem,
                blocks=self,
                form=self.form_args,
                r_x=r_x.copy(),
                r_g=r_g.copy(),
                reg=reg,
                dx=step[0],
                dlam=step[1],
                touch=[len(t) for t in self.touch],
                mats=[a.copy() for a in self.mats],
                strips=[s.copy() for s in self.strips],
            )
        )
        return step

    monkeypatch.setattr(KktBlocks, "__init__", spy_init)
    monkeypatch.setattr(KktBlocks, "form", spy_form)
    monkeypatch.setattr(KktBlocks, "solve", spy_solve)
    return records
