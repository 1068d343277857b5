"""Fixed reference kernels that measure how fast the machine is right now.

The host this benchmark runs on is shared. For minutes at a time, the same
work can take up to two and a half times as long, depending on what else
runs there. Each run therefore times a kernel shaped like its workload's
hot loop before every operation, and scales its set-up and operation
times by ``nominal / median(kernel time)``. The kernels never call the
program, so a change to the program cannot move them:

- ``flow`` (ds-labelling): Newton power flows on a synthetic 33-bus
  feeder, Python-heavy with small dense solves, like ``ds_response``;
- ``train`` (ds-offer): two epochs of the max-aggregator's mini-batch
  forward and backward pass, with 1000 facets and 12 inputs;
- ``kkt`` (tso-dispatch): the dense work of two interior-point iterations:
  a 528-row KKT solve, the condensed facet block ``J^T D J`` of a
  2,134-row PP problem, and complex 124-bus Hessian products.
"""

from __future__ import annotations

import time

import numpy as np

from checks import newton_rect


def _flow(rng):
    n = 33
    edges = [(i, i + 1) for i in range(n - 1)] + [(7, 20), (11, 31)]
    y = np.zeros((n, n), dtype=complex)
    for f, t in edges:
        ys = 1.0 / complex(*rng.uniform([0.005, 0.01], [0.02, 0.04]))
        y[[f, t], [f, t]] += ys
        y[f, t] -= ys
        y[t, f] -= ys
    s_spec = -rng.uniform(0.002, 0.01, n) * (1 + 0.5j)
    fixed, v_fixed = np.array([0]), np.array([1.0 + 0j])

    def run():
        for _ in range(20):
            ok, _ = newton_rect(y, s_spec, fixed, v_fixed)
            if not ok:
                raise RuntimeError("reference power flow did not converge")

    return run


def _train(rng):
    x = rng.normal(size=(2304, 12))
    labels = rng.integers(0, 2, len(x)).astype(float)
    w = rng.normal(0.0, 0.1, size=(1000, 12))
    b = np.full(1000, -0.5)

    def run():
        grad = np.zeros_like(w)
        for lo in list(range(0, len(x), 256)) * 2:
            xb = x[lo : lo + 256]
            o = xb @ w.T + b
            k = np.argmax(o, axis=1)
            f = o[np.arange(len(xb)), k]
            sig = 1.0 / (1.0 + np.exp(-f))
            np.add.at(grad, k, (sig - labels[lo : lo + 256])[:, None] * xb)

    return run


def _kkt(rng):
    a = rng.normal(size=(528, 528))
    kkt = a + a.T + 528.0 * np.eye(528)
    rhs = rng.normal(size=528)
    jac = rng.normal(size=(2134, 107))
    d = rng.uniform(0.1, 1.0, 2134)
    ybus = rng.normal(size=(124, 124)) + 1j * rng.normal(size=(124, 124))
    v = np.exp(1j * rng.uniform(-0.2, 0.2, 124))

    def run():
        for _ in range(2):
            np.linalg.solve(kkt, rhs)
            (jac.T * d) @ jac
            for _ in range(4):
                np.diag(v) @ np.conj(ybus @ np.diag(v))

    return run


KERNELS = {"flow": _flow, "train": _train, "kkt": _kkt}
# kernel seconds at the speed the scaled times refer to: this 2-vCPU host
# in its fast state, where the reference figures in README.md come from
NOMINAL_S = {"flow": 0.0086, "train": 0.0091, "kkt": 0.0102}


class Reference:
    def __init__(self, kind: str):
        self.nominal_s = NOMINAL_S[kind]
        self._run = KERNELS[kind](np.random.default_rng(20250318))

    def run(self) -> float:
        """Seconds one pass of the kernel takes."""
        t0 = time.perf_counter()
        self._run()
        return time.perf_counter() - t0
