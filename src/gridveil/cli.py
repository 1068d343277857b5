"""Command line front end for the sampling/training/solving pipeline.

Every stage reads and writes plain artifacts (CSV datasets, JSON models and
bundles, JSON reports), and each artifact records the command line and seed
that produced it, either in its own meta block or in a ``<file>.meta.json``
sidecar.  A bundle crosses to the TSO, so its provenance lives only in the
sidecar, which stays with the DSO.

Exit codes: 0 success, 1 bad usage, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys

import numpy as np

from . import __version__
from .acopf import NlpOptions, OpfSolution, solve_standard
from .bench import emit_histogram, report_from_json, report_to_json, run_benchmark, summarize
from .netmodel import CostPoly, NetworkCase, build_integrated, bundled_case, load_case
from .ppopf import assemble_pp, solve_pp, verify_dispatch
from .sampling import (
    generate_dataset,
    read_csv,
    sample_space,
    split_dataset,
    write_csv,
    write_json,
    write_sidecar,
)
from .surrogate import (
    BundleSchemaError,
    PolytopeModel,
    SurrogateBundle,
    TrainConfig,
    classification_metrics,
    export_bundle,
    fit_pcc,
    fr_from_dict,
    fr_to_dict,
    import_bundle,
    offer_bundle,
    pcc_from_dict,
    pcc_targets,
    pcc_to_dict,
    regression_metrics,
    train_fr,
    validate_fr_dict,
    validate_pcc_dict,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad arguments; route through UsageError
    # instead so run() can map usage mistakes to exit code 1
    def error(self, message):
        raise UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}".rstrip())


def _command_string(argv: list[str]) -> str:
    return "gridveil " + " ".join(shlex.quote(a) for a in argv)


def _case(token: str) -> NetworkCase:
    if os.path.exists(token):
        return load_case(token)
    return bundled_case(token)


def _opts(ns) -> NlpOptions | None:
    if getattr(ns, "max_iter", None) is None:
        return None
    return NlpOptions(max_iter=ns.max_iter)


# ---------------------------------------------------------------- artifacts

def save_fr_model(model: PolytopeModel, path, extra_meta: dict | None = None) -> None:
    meta = {**model.meta, **(extra_meta or {})}
    write_json(path, {"kind": "fr_polytope", **fr_to_dict(model), "meta": meta})


def _read_artifact(path, kind: str, what: str) -> dict:
    with open(path) as fh:
        d = json.load(fh)
    if not isinstance(d, dict) or d.get("kind") != kind:
        raise ValueError(f"{path}: not a {what} file")
    return d


def load_fr_model(path, n_x: int) -> PolytopeModel:
    """A trained polytope over n_x inputs, checked as a bundle's ``fr`` is."""
    d = _read_artifact(path, "fr_polytope", "polytope model")
    fr = {k: v for k, v in d.items() if k not in ("kind", "meta")}
    validate_fr_dict(fr, n_x, where=f"{path}: fr")
    model = fr_from_dict(fr)
    model.meta = dict(d.get("meta", {}))
    return model


def save_pq_models(models: list[dict], path, meta: dict | None = None) -> None:
    models = [pcc_to_dict(m) for m in models]
    write_json(path, {"kind": "pcc_quadratics", "models": models, "meta": meta or {}})


def load_pq_models(path, n_x: int) -> list[dict]:
    """Coupling regressions over n_x inputs, each checked as a bundle's ``pcc`` entry is."""
    models = _read_artifact(path, "pcc_quadratics", "coupling-regression").get("models")
    if not isinstance(models, list):
        raise BundleSchemaError(f"{path}: models: expected a list, one entry per PCC")
    for u, entry in enumerate(models):
        validate_pcc_dict(entry, n_x, f"{path}: models[{u}]")
    return [pcc_from_dict(m, u) for u, m in enumerate(models)]


def save_solution(sol, path, command: str, case_name: str, mode: str) -> None:
    d = {
        "kind": "pp_solution" if mode == "pp" else "opf_solution",
        "status": sol.status,
        "objective": float(sol.objective),
        "iterations": sol.iterations,
        "solve_time": sol.solve_time,
        "x": sol.x.tolist(),
        "meta": {"command": command, "case": case_name, "mode": mode},
    }
    if sol.x_ds is not None:
        d["x_ds"] = {str(ds): xj.tolist() for ds, xj in sol.x_ds.items()}
    write_json(path, d)


def load_solution(path) -> OpfSolution:
    """A saved coupled solve; the file keeps no multipliers."""
    d = _read_artifact(path, "pp_solution", "coupled-solve solution")
    return OpfSolution(
        x=np.asarray(d["x"], dtype=float),
        objective=float(d["objective"]),
        status=d["status"],
        iterations=int(d["iterations"]),
        solve_time=float(d["solve_time"]),
        lam=np.zeros(0),
        mu=np.zeros(0),
        mu_box=np.zeros(0),
        x_ds={int(ds): np.asarray(xj, dtype=float) for ds, xj in d.get("x_ds", {}).items()},
    )


def _load_bundles(paths) -> dict[int, SurrogateBundle]:
    bundles = {}
    for p in paths:
        b = import_bundle(p)
        if b.ds_id in bundles:
            raise UsageError(f"duplicate bundle for DS {b.ds_id}: {p}")
        bundles[b.ds_id] = b
    return bundles


# -------------------------------------------------------------- subcommands

def _cmd_sample(ns, command: str) -> int:
    case = _case(ns.case)
    ds = generate_dataset(case, ns.n, seed=ns.seed, jobs=ns.jobs)
    ds.meta["command"] = command
    write_csv(ns.out, ds)
    print(
        f"{case.name}: {ds.n} samples, {ds.feasible_fraction * 100:.1f}% feasible -> {ns.out}"
    )
    return 0


def _cmd_train_fr(ns, command: str) -> int:
    data = read_csv(ns.data)
    train, test = split_dataset(data, ns.test_frac, seed=ns.split_seed)
    hyper = TrainConfig(
        lr=ns.lr,
        lr_min=ns.lr_min,
        epochs=ns.epochs,
        batch=ns.batch,
        seed=ns.seed,
        val_frac=ns.val_frac,
        patience=ns.patience,
        restarts=ns.restarts,
    )
    model = train_fr(train, n_h=ns.n_hidden, w_10=ns.w10, w_01=ns.w01, hyper=hyper)
    m = classification_metrics(model, test)
    save_fr_model(
        model,
        ns.out,
        extra_meta={"command": command, "data": str(ns.data), "split_seed": ns.split_seed},
    )
    spec = f"{m.specificity * 100:.2f}%" if m.specificity is not None else "n/a"
    rec = f"{m.recall * 100:.2f}%" if m.recall is not None else "n/a"
    print(
        f"trained {ns.n_hidden} facets on {train.n} rows: accuracy {m.accuracy * 100:.2f}%"
        f" specificity {spec} recall {rec} -> {ns.out}"
    )
    return 0


def _cmd_train_pq(ns, command: str) -> int:
    case = _case(ns.case)
    data = read_csv(ns.data)
    train, test = split_dataset(data, ns.test_frac, seed=ns.split_seed)
    models = fit_pcc(train, case.base_mva)
    feas_te = test.label == 0
    targets = dict(zip("pq", pcc_targets(test, case.base_mva)))
    meta = {"command": command, "data": str(ns.data)}
    for u, pair in enumerate(models):
        for key, target in (("p", "active"), ("q", "reactive")):
            rmse, _ = regression_metrics(pair[key], test.x[feas_te], targets[key][feas_te, u])
            meta[f"rmse_{key}_{u + 1}"] = rmse
            print(f"pcc {u + 1} {target}: test rmse {rmse:.2e} pu")
    save_pq_models(models, ns.out, meta=meta)
    print(f"{len(models)} coupling-regression pairs -> {ns.out}")
    return 0


def _parse_cost(text: str) -> CostPoly:
    parts = [float(t) for t in text.split(",")]
    if len(parts) == 2:
        parts.append(0.0)
    if len(parts) != 3:
        raise UsageError(f"bad cost {text!r}: expected a,b[,c]")
    return CostPoly(parts[0], parts[1], parts[2])


def _cmd_bundle(ns, command: str) -> int:
    case = _case(ns.case)
    space = sample_space(case)
    fr = load_fr_model(ns.fr, space.n_x)
    pcc = load_pq_models(ns.pq, space.n_x)
    if ns.dg_cost:
        costs = [_parse_cost(t) for t in ns.dg_cost]
        if len(costs) == 1:
            costs = costs * case.n_gen
        if len(costs) != case.n_gen:
            raise UsageError(f"expected 1 or {case.n_gen} --dg-cost values, got {len(costs)}")
    else:
        costs = [g.cost for g in case.generators]
    bundle = offer_bundle(case, fr, pcc, costs)
    export_bundle(bundle, ns.out)
    # provenance stays DS-side: the case hash would confirm a guessed network
    write_sidecar(ns.out, {"command": command, "case_hash": case.text_hash()})
    print(f"DS {bundle.ds_id} bundle: {fr.n_h} facets, {space.n_pcc} pcc, {case.n_gen} dg -> {ns.out}")
    return 0


def _print_solution(sol) -> None:
    print(
        f"status {sol.status}, objective {sol.objective:.4f}, "
        f"{sol.iterations} iterations, {sol.solve_time:.2f}s"
    )


def _cmd_solve(ns, command: str) -> int:
    if ns.mode == "pp" and not ns.bundle:
        raise UsageError("solve --mode pp requires at least one --bundle")
    if ns.mode == "standard" and ns.bundle:
        raise UsageError("--bundle only applies to --mode pp")
    case = _case(ns.case)
    if ns.mode == "pp":
        if ns.attach:
            raise UsageError("--attach only applies to --mode standard")
        sol = solve_pp(assemble_pp(case, _load_bundles(ns.bundle)), _opts(ns))
    else:
        if ns.attach:
            case = build_integrated(case, [_case(t) for t in ns.attach])
        sol = solve_standard(case, _opts(ns), charts=case.all_dg_charts())
    _print_solution(sol)
    if ns.out:
        save_solution(sol, ns.out, command, case.name, ns.mode)
    return 0 if sol.optimal else 2


def _cmd_verify(ns, command: str) -> int:
    ts = _case(ns.ts)
    integ = build_integrated(ts, [_case(t) for t in ns.attach])
    bundles = _load_bundles(ns.bundle)
    sol = load_solution(ns.solution)
    rep = verify_dispatch(integ, sol, bundles, _opts(ns))
    verdict = "feasible" if rep.feasible_true else "infeasible"
    print(f"dispatch {verdict} on {integ.name}")
    if not rep.feasible_true and rep.message:
        print(f"  {rep.message}")
    for domain, lim in sorted(rep.violations.items(), key=lambda kv: str(kv[0])):
        if not lim.ok:
            print(
                f"  {domain}: {len(lim.v_violations)} voltage, "
                f"{len(lim.flow_violations)} flow violations"
            )
    if np.isfinite(rep.verified_cost):
        print(f"verified cost {rep.verified_cost:.4f} (raw {rep.raw_cost:.4f})")
        print(f"max coupling-flow error {rep.pcc_flow_error:.4f} MW")
    if ns.out:
        d = {
            "kind": "verification",
            "feasible_true": rep.feasible_true,
            "verified_cost": rep.verified_cost,
            "raw_cost": rep.raw_cost,
            "pcc_flow_error": rep.pcc_flow_error,
            "message": rep.message,
            "meta": {"command": command},
        }
        write_json(ns.out, d)
    return 0 if rep.feasible_true else 2


def _print_summary(summary: dict) -> None:
    for k, v in summary.items():
        if isinstance(v, float):
            print(f"{k:24s} {v:.6g}")
        else:
            print(f"{k:24s} {v}")


def _cmd_bench(ns, command: str) -> int:
    ts = _case(ns.ts)
    integ = build_integrated(ts, [_case(t) for t in ns.attach])
    bundles = _load_bundles(ns.bundle)
    rep = run_benchmark(
        integ,
        ts,
        bundles,
        n_trials=ns.trials,
        seed=ns.seed,
        opts=_opts(ns),
        jobs=ns.jobs,
    )
    report_to_json(rep, ns.out, command=command)
    if ns.hist:
        emit_histogram(rep, ns.bins, ns.hist)
    _print_summary(rep.summary)
    print(f"report -> {ns.out}")
    return 0


def _cmd_report(ns, command: str) -> int:
    rep = report_from_json(ns.infile)
    _print_summary(summarize(rep))
    if ns.hist:
        emit_histogram(rep, ns.bins, ns.hist)
        print(f"histogram -> {ns.hist}")
    return 0


# -------------------------------------------------------------------- wiring

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gridveil", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"gridveil {__version__}")
    sub = parser.add_subparsers(dest="cmd", parser_class=_Parser, metavar="COMMAND")

    def jobs_arg(p):
        p.add_argument(
            "--jobs", type=int, default=None, help="worker processes (default: GRIDVEIL_JOBS or 1)"
        )

    def iter_arg(p):
        p.add_argument("--max-iter", type=int, default=None, help="interior-point iteration cap")

    p = sub.add_parser("sample", help="draw labeled operating points from a DS case")
    p.add_argument("--case", required=True, help="bundled case name or .case path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV")
    jobs_arg(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("train-fr", help="train the feasibility-polytope classifier")
    p.add_argument("--data", required=True, help="sample CSV")
    p.add_argument("--n-hidden", type=int, required=True)
    p.add_argument("--w10", type=float, default=1.0, help="weight on missed infeasible points")
    p.add_argument("--w01", type=float, default=1.0, help="weight on missed feasible points")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--lr-min", type=float, default=0.0, help="cosine-decay floor (0 disables)")
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--patience", type=int, default=25)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--val-frac", type=float, default=0.1)
    p.add_argument("--test-frac", type=float, default=0.2)
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output model JSON")
    p.set_defaults(func=_cmd_train_fr)

    p = sub.add_parser("train-pq", help="fit quadratic coupling-flow regressions")
    p.add_argument("--case", required=True, help="case the data came from (sets the MVA base)")
    p.add_argument("--data", required=True, help="sample CSV")
    p.add_argument("--test-frac", type=float, default=0.2)
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output model JSON")
    p.set_defaults(func=_cmd_train_pq)

    p = sub.add_parser("bundle", help="assemble the DS-side disclosure bundle")
    p.add_argument("--case", required=True)
    p.add_argument("--fr", required=True, help="polytope model JSON")
    p.add_argument("--pq", required=True, help="coupling-regression JSON")
    p.add_argument(
        "--dg-cost",
        action="append",
        default=None,
        metavar="A,B[,C]",
        help="DG cost polynomial, once or per DG (default: case costs)",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bundle)

    p = sub.add_parser("solve", help="solve an OPF, full-network or bundle-coupled")
    p.add_argument("--case", required=True, help="TS case for --mode pp")
    p.add_argument("--mode", choices=("standard", "pp"), required=True)
    p.add_argument("--bundle", action="append", default=None, help="bundle JSON (repeatable)")
    p.add_argument(
        "--attach", action="append", default=None, help="DS case to merge (standard mode)"
    )
    p.add_argument("--out", default=None, help="solution JSON")
    iter_arg(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="re-check a coupled dispatch on the full network")
    p.add_argument("--ts", required=True)
    p.add_argument("--attach", action="append", required=True)
    p.add_argument("--bundle", action="append", required=True)
    p.add_argument("--solution", required=True, help="solution JSON from solve --mode pp")
    p.add_argument("--out", default=None)
    iter_arg(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="paired random-cost benchmark")
    p.add_argument("--ts", required=True)
    p.add_argument("--attach", action="append", required=True)
    p.add_argument("--bundle", action="append", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="report JSON")
    p.add_argument("--hist", default=None, help="histogram CSV")
    p.add_argument("--bins", type=int, default=20)
    iter_arg(p)
    jobs_arg(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("report", help="summarize a benchmark report")
    p.add_argument("--in", dest="infile", required=True, help="report JSON")
    p.add_argument("--hist", default=None)
    p.add_argument("--bins", type=int, default=20)
    p.set_defaults(func=_cmd_report)

    return parser


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return 0 if exc.code in (0, None) else 1
    if getattr(ns, "func", None) is None:
        print(parser.format_usage().rstrip(), file=sys.stderr)
        return 1
    try:
        return ns.func(ns, command=_command_string(argv))
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())
