import json
from pathlib import Path

import numpy as np
import pytest

from gridveil.bench import report_from_json, summarize
from gridveil.cli import load_fr_model, load_pq_models, run
from gridveil.netmodel import CostPoly, bundled_case
from gridveil.sampling import read_csv, sample_space
from gridveil.surrogate import export_bundle, import_bundle, offer_bundle

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def bundle_files(quick_bundles, tmp_path_factory):
    root = tmp_path_factory.mktemp("bundles")
    paths = []
    for ds, bundle in sorted(quick_bundles.items()):
        p = root / f"ds{ds}.json"
        export_bundle(bundle, p)
        paths.append(str(p))
    return paths


def coupled(bundle_files) -> list[str]:
    """--attach for ds1-ds3, then --bundle for each bundle file."""
    attach = [t for ds in ("ds1", "ds2", "ds3") for t in ("--attach", ds)]
    return attach + [t for b in bundle_files for t in ("--bundle", b)]


@pytest.fixture(scope="module")
def pp_solution_file(bundle_files, tmp_path_factory):
    out = tmp_path_factory.mktemp("sol") / "pp.json"
    args = ["solve", "--case", "ts30", "--mode", "pp", "--out", str(out)]
    assert run(args + [t for b in bundle_files for t in ("--bundle", b)]) == 0
    return str(out)


# -------------------------------------------------------------- exit status


def test_help_matches_golden(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "cli_help.txt").read_text()


def test_usage_failures_exit_one(capsys):
    assert run([]) == 1
    assert run(["sample", "--case", "ds1", "--n", "5"]) == 1  # --seed missing
    assert run(["solve", "--case", "ts30", "--mode", "pp"]) == 1  # no bundles
    assert run(["sample", "--frobnicate"]) == 1
    assert run(["no-such-command"]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err


def test_runtime_failures_exit_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.csv")
    code = run(
        ["train-fr", "--data", missing, "--n-hidden", "2", "--seed", "0",
         "--out", str(tmp_path / "m.json")]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_version_exits_zero(capsys):
    assert run(["--version"]) == 0
    assert capsys.readouterr().out.startswith("gridveil ")


# ---------------------------------------------------------------- pipeline


@pytest.fixture(scope="module")
def tiny_artifacts(tmp_path_factory):
    """sample -> train-fr -> train-pq -> bundle on a small ds1 run."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "ds1.csv"
    fr = root / "fr.json"
    pq = root / "pq.json"
    bundle = root / "bundle.json"
    assert run(["sample", "--case", "ds1", "--n", "400", "--seed", "11",
                "--out", str(data)]) == 0
    assert run(["train-fr", "--data", str(data), "--n-hidden", "8",
                "--seed", "3", "--epochs", "120", "--lr", "0.01",
                "--out", str(fr)]) == 0
    assert run(["train-pq", "--case", "ds1", "--data", str(data),
                "--out", str(pq)]) == 0
    assert run(["bundle", "--case", "ds1", "--fr", str(fr), "--pq", str(pq),
                "--dg-cost", "0.02,20", "--out", str(bundle)]) == 0
    return {"data": data, "fr": fr, "pq": pq, "bundle": bundle}


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--n-hidden", "0", "n_h"),
        ("--batch", "0", "batch"),
        ("--epochs", "0", "epochs"),
        ("--restarts", "0", "restarts"),
        ("--lr", "0", "lr"),
        ("--val-frac", "1.0", "val_frac"),
    ],
)
def test_train_fr_refuses_bad_parameters(tiny_artifacts, tmp_path, capsys, flag, value, field):
    args = {"--n-hidden": "8", "--seed": "3", flag: value}
    argv = ["train-fr", "--data", str(tiny_artifacts["data"]), "--out", str(tmp_path / "m.json")]
    code = run(argv + [token for pair in args.items() for token in pair])
    assert code == 2
    assert f"ValueError: {field}: " in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_sample_artifact(tiny_artifacts):
    ds = read_csv(tiny_artifacts["data"])
    assert ds.n == 400
    assert ds.meta["seed"] == 11
    assert ds.meta["case"] == "ds1"
    assert ds.meta["command"].startswith("gridveil sample ")
    assert "--seed 11" in ds.meta["command"]


def test_trained_artifacts_carry_provenance(tiny_artifacts):
    fr = json.loads(tiny_artifacts["fr"].read_text())
    assert fr["kind"] == "fr_polytope"
    assert len(fr["W"]) == 8
    assert fr["meta"]["command"].startswith("gridveil train-fr ")

    pq = json.loads(tiny_artifacts["pq"].read_text())
    assert pq["kind"] == "pcc_quadratics"
    assert len(pq["models"]) == 1
    assert pq["meta"]["rmse_p_1"] < 1e-2  # per unit

    bundle = import_bundle(tiny_artifacts["bundle"])
    assert bundle.ds_id == 1
    assert bundle.n_dg == 1
    assert bundle.costs[0].b == 20.0
    # import_bundle refuses a meta block: the provenance stays DS-side
    side = json.loads(Path(str(tiny_artifacts["bundle"]) + ".meta.json").read_text())
    assert side["command"].startswith("gridveil bundle ")
    assert side["case_hash"] == bundled_case("ds1").text_hash()


@pytest.mark.parametrize(
    "kind, mutate, field",
    [
        ("pq", lambda d: d["models"][0]["p"].pop("A"), "models[0].p: missing field(s) ['A']"),
        ("pq", lambda d: d["models"][0]["q"].update(c=float("nan")), "models[0].q.c: non-finite"),
        ("fr", lambda d: d["W"].__setitem__(1, [0.0] * len(d["W"][1])), "fr.W[1]: all-zero facet row"),
        ("fr", lambda d: d["b"].__setitem__(0, float("inf")), "fr.b: non-finite"),
        ("fr", lambda d: d.pop("b"), "fr: missing field(s) ['b']"),
    ],
)
def test_bundle_names_the_bad_field_of_a_model_file(
    tiny_artifacts, tmp_path, capsys, kind, mutate, field
):
    d = json.loads(tiny_artifacts[kind].read_text())
    mutate(d)
    bad = tmp_path / f"{kind}.json"
    bad.write_text(json.dumps(d))
    files = {"fr": str(tiny_artifacts["fr"]), "pq": str(tiny_artifacts["pq"]), kind: str(bad)}
    code = run(["bundle", "--case", "ds1", "--fr", files["fr"], "--pq", files["pq"],
                "--out", str(tmp_path / "b.json")])
    assert code == 2
    assert f"{bad}: {field}" in capsys.readouterr().err


def test_bundle_is_the_offer_of_its_models(tiny_artifacts, tmp_path):
    case = bundled_case("ds1")
    n_x = sample_space(case).n_x
    fr = load_fr_model(tiny_artifacts["fr"], n_x)
    pcc = load_pq_models(tiny_artifacts["pq"], n_x)
    bundle = offer_bundle(case, fr, pcc, [CostPoly(0.02, 20.0)] * case.n_gen)
    export_bundle(bundle, tmp_path / "b.json")
    assert (tmp_path / "b.json").read_bytes() == tiny_artifacts["bundle"].read_bytes()


@pytest.mark.parametrize("case, blocks", [("ieee33", 0), ("ts30", 3)])
@pytest.mark.parametrize("command", ["sample", "bundle"])
def test_case_without_one_ds_is_refused_by_name(
    tiny_artifacts, tmp_path, capsys, command, case, blocks
):
    out = tmp_path / "out"
    extra = {"sample": ["--n", "10", "--seed", "1"],
             "bundle": ["--fr", str(tiny_artifacts["fr"]), "--pq", str(tiny_artifacts["pq"])]}
    assert run([command, "--case", case, *extra[command], "--out", str(out)]) == 2
    want = f"case {case}: expected a single-DS case (one pcc block), found {blocks} pcc blocks"
    assert f"ValueError: {want}" in capsys.readouterr().err
    assert not out.exists()


def test_bundle_rejects_duplicate_ds(tiny_artifacts, tmp_path, capsys):
    b = str(tiny_artifacts["bundle"])
    code = run(["solve", "--case", "ts30", "--mode", "pp",
                "--bundle", b, "--bundle", b, "--out", str(tmp_path / "s.json")])
    assert code == 1
    assert "duplicate" in capsys.readouterr().err


# ------------------------------------------------------------ solve / verify


def test_solve_standard_writes_solution(tmp_path, capsys):
    out = tmp_path / "std.json"
    case = Path(__file__).parent / "golden" / "two_bus.case"
    code = run(["solve", "--case", str(case), "--mode", "standard",
                "--out", str(out)])
    assert code == 0
    sol = json.loads(out.read_text())
    assert sol["kind"] == "opf_solution"
    assert sol["status"] == "optimal"
    assert "objective" in sol
    assert sol["meta"]["mode"] == "standard"
    assert "optimal" in capsys.readouterr().out


def test_solve_rejects_bundle_in_standard_mode(bundle_files, capsys):
    code = run(["solve", "--case", "ts30", "--mode", "standard",
                "--bundle", bundle_files[0]])
    assert code == 1


def test_solve_pp_and_verify(pp_solution_file, bundle_files, capsys, tmp_path):
    sol = json.loads(Path(pp_solution_file).read_text())
    assert sol["kind"] == "pp_solution"
    assert sol["status"] == "optimal"
    assert set(sol["x_ds"]) == {"1", "2", "3"}
    assert sol["meta"]["command"].startswith("gridveil solve ")

    rep_out = tmp_path / "verify.json"
    args = ["verify", "--ts", "ts30", "--solution", pp_solution_file,
            "--out", str(rep_out), *coupled(bundle_files)]
    assert run(args) == 0
    out = capsys.readouterr().out
    assert "feasible" in out
    rep = json.loads(rep_out.read_text())
    assert rep["feasible_true"] is True
    assert rep["verified_cost"] > 0
    assert rep["pcc_flow_error"] < 1.0


def test_verify_names_a_dg_outside_its_chart(pp_solution_file, bundle_files, tmp_path, capsys):
    sol = json.loads(Path(pp_solution_file).read_text())
    r = len(bundled_case("ds3").pcc_map[3])  # x_3[r] is the p of its first DG
    sol["x_ds"]["3"][r] += 50.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(sol))
    args = ["verify", "--ts", "ts30", "--solution", str(bad), *coupled(bundle_files)]
    assert run(args) == 2
    out = capsys.readouterr().out
    assert "infeasible" in out and "DS 3 DG 1" in out
    assert "KKT" not in out


def test_verify_names_a_nan_setpoint(pp_solution_file, bundle_files, tmp_path, capsys):
    sol = json.loads(Path(pp_solution_file).read_text())
    r = len(bundled_case("ds3").pcc_map[3])
    sol["x_ds"]["3"][r] = float("nan")  # json writes NaN, and reads it back
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(sol))
    args = ["verify", "--ts", "ts30", "--solution", str(bad), *coupled(bundle_files)]
    assert run(args) == 2
    out = capsys.readouterr().out
    assert "infeasible" in out and "DS 3 DG 1" in out and "not finite" in out


def test_verify_rejects_standard_solution(tmp_path, bundle_files, capsys):
    out = tmp_path / "std.json"
    case = Path(__file__).parent / "golden" / "two_bus.case"
    assert run(["solve", "--case", str(case), "--mode", "standard",
                "--out", str(out)]) == 0
    args = ["verify", "--ts", "ts30", "--solution", str(out), *coupled(bundle_files)]
    assert run(args) == 2


# ------------------------------------------------------------ bench / report


def test_bench_and_report_commands(bundle_files, tmp_path, capsys):
    rep = tmp_path / "bench.json"
    hist = tmp_path / "bench.csv"
    args = ["bench", "--ts", "ts30", "--trials", "1", "--seed", "5",
            "--out", str(rep), "--hist", str(hist), *coupled(bundle_files)]
    assert run(args) == 0
    bench_out = capsys.readouterr().out
    assert "feasibility" in bench_out

    report = report_from_json(rep)
    assert report.meta["command"].startswith("gridveil bench ")
    assert summarize(report) == report.summary
    assert hist.read_text().startswith("metric,bin_lo,bin_hi,count")

    assert run(["report", "--in", str(rep)]) == 0
    report_out = capsys.readouterr().out
    assert "feasibility" in report_out
