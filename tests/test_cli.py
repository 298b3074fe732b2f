"""End-to-end command-line runs into temporary directories.

Everything goes through main(argv) for speed; one subprocess test at
the bottom covers the installed console script.
"""

import csv
import json
import shutil
import subprocess

import numpy as np
import pytest

from rdmft.cli import main
from rdmft.ensemble import EnsembleParams, OneRdm
from rdmft.errors import NotRepresentableError
from rdmft.fock import Statistics
from rdmft.functional import omega_of_v, potential_basis, universal_functional
from rdmft.models import ModelSpec, build_system
from rdmft.serialize import matrix_to_json, rdm_from_json

ZERO_MODEL = {"kind": "zero", "nb": 3, "n": 2, "statistics": "fermion"}


def write_config(tmp_path, obj):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def run(tmp_path, command, cfg, seed=None):
    argv = [command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv), tmp_path / "out"


class TestGibbs:
    def test_zero_model_occupations(self, tmp_path):
        code, out = run(tmp_path, "gibbs", {"model": ZERO_MODEL, "beta": 1.0})
        assert code == 0
        header, rows = read_csv(out / "gibbs_summary.csv")
        assert header[:3] == ["run_id", "beta", "potential_id"]
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert float(row["omega"]) == pytest.approx(-np.log(3))
        assert float(row["entropy"]) == pytest.approx(np.log(3))
        assert float(row["energy"]) == pytest.approx(0, abs=1e-12)
        occ_header, occ_rows = read_csv(out / "occupations.csv")
        assert occ_header == ["run_id", "beta", "orbital", "occupation", "face_distance"]
        assert len(occ_rows) == 3
        assert all(float(r[3]) == pytest.approx(2 / 3) for r in occ_rows)
        assert all(float(r[4]) == pytest.approx(1 / 3) for r in occ_rows)
        gamma = rdm_from_json(json.loads((out / "rdm_000.json").read_text()))
        np.testing.assert_allclose(gamma.matrix, (2 / 3) * np.eye(3), atol=1e-12)

    def test_beta_grid_and_random_potentials(self, tmp_path):
        cfg = {
            "model": ZERO_MODEL,
            "betas": [0.5, 1.0, 2.0],
            "potentials": {"count": 2, "norm": 1.0, "seed": 4},
        }
        code, out = run(tmp_path, "gibbs", cfg)
        assert code == 0
        _, rows = read_csv(out / "gibbs_summary.csv")
        assert len(rows) == 6
        assert all(float(r[3]) == pytest.approx(1.0) for r in rows)
        _, occ_rows = read_csv(out / "occupations.csv")
        assert len(occ_rows) == 18
        assert (out / "rdm_005.json").exists()

    def test_missing_beta_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "gibbs", {"model": ZERO_MODEL})
        assert code == 2

    def test_bad_statistics_is_config_error(self, tmp_path):
        model = {**ZERO_MODEL, "statistics": "anyon"}
        code, _ = run(tmp_path, "gibbs", {"model": model, "beta": 1.0})
        assert code == 2
        model = {**ZERO_MODEL, "nb": "three"}
        code, _ = run(tmp_path, "gibbs", {"model": model, "beta": 1.0})
        assert code == 2


class TestInvert:
    def test_round_trip_recovers_potential(self, tmp_path):
        system = build_system(ModelSpec(**{**ZERO_MODEL, "statistics": Statistics.FERMION}))
        pbasis = potential_basis(3)
        rng = np.random.default_rng(7)
        c = rng.normal(size=pbasis.size)
        c *= 0.8 / np.linalg.norm(c)
        v = pbasis.potential(c)
        _, gamma = omega_of_v(v, system, EnsembleParams(1.0))
        cfg = {
            "model": ZERO_MODEL,
            "beta": 1.0,
            "target": {"matrix": matrix_to_json(gamma.matrix)},
        }
        code, out = run(tmp_path, "invert", cfg)
        assert code == 0
        report = json.loads((out / "inversion_report.json").read_text())
        assert report["verdict"] == "converged"
        assert report["classification"] == "interior"
        assert report["residual"] <= 1e-10
        recovered = np.asarray(report["v_star"]["matrix"]["data"])
        expected = matrix_to_json(v.matrix)["data"]
        np.testing.assert_allclose(recovered, expected, atol=1e-8)
        header, trace_rows = read_csv(out / "newton_trace.csv")
        assert header == ["iteration", "g_value", "residual", "step_norm"]
        assert len(trace_rows) == report["iterations"]

    def test_idempotent_target_exits_3(self, tmp_path):
        cfg = {
            "model": ZERO_MODEL,
            "beta": 1.0,
            "target": {"occupations": [1.0, 1.0, 0.0]},
        }
        code, out = run(tmp_path, "invert", cfg)
        assert code == 3
        report = json.loads((out / "inversion_report.json").read_text())
        assert report["verdict"] == "non_representable"
        # decided by the classification, before any Newton step
        assert report["iterations"] == 0
        header, trace_rows = read_csv(out / "newton_trace.csv")
        assert header == ["iteration", "g_value", "residual", "step_norm"]
        assert trace_rows == []

    def test_malformed_matrix_exits_2(self, tmp_path):
        cfg = {
            "model": ZERO_MODEL,
            "beta": 1.0,
            "target": {"matrix": {"shape": [3, 3], "data": [1.0, 0.0]}},
        }
        code, _ = run(tmp_path, "invert", cfg)
        assert code == 2

    def test_wrong_trace_exits_2(self, tmp_path):
        cfg = {
            "model": ZERO_MODEL,
            "beta": 1.0,
            "target": {"occupations": [0.9, 0.9, 0.9]},
        }
        code, _ = run(tmp_path, "invert", cfg)
        assert code == 2

    def test_unknown_option_exits_2(self, tmp_path):
        cfg = {
            "model": ZERO_MODEL,
            "beta": 1.0,
            "target": {"sample": {"seed": 1}},
            "options": {"tol": 1e-10, "damping": 0.5},
        }
        code, _ = run(tmp_path, "invert", cfg)
        assert code == 2
        code, _ = run(tmp_path, "invert", {**cfg, "options": {"max_iter": "10"}})
        assert code == 2


class TestFunctional:
    def test_max_entropy_target(self, tmp_path):
        occ = [2 / 3, 2 / 3, 2 / 3]
        cfg = {"model": ZERO_MODEL, "beta": 1.0, "targets": [{"occupations": occ}]}
        code, out = run(tmp_path, "functional", cfg)
        assert code == 0
        header, rows = read_csv(out / "functional_values.csv")
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert float(row["f_value"]) == pytest.approx(-np.log(3), abs=1e-9)
        assert float(row["v_star_norm"]) == pytest.approx(0, abs=1e-8)
        gradients = json.loads((out / "gradients.json").read_text())["gradients"]
        assert len(gradients) == 1
        assert np.linalg.norm(gradients[0]["matrix"]["data"]) <= 1e-8

    def test_segment_scan_is_convex(self, tmp_path):
        cfg = {
            "model": ZERO_MODEL,
            "beta": 1.0,
            "segment": {
                "from": {"occupations": [0.9, 0.6, 0.5]},
                "to": {"occupations": [0.5, 0.75, 0.75]},
                "points": 9,
            },
        }
        code, out = run(tmp_path, "functional", cfg)
        assert code == 0
        header, rows = read_csv(out / "segment.csv")
        assert header == ["lambda", "f_value", "gradient_norm"]
        assert len(rows) == 9
        values = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(values, 2) >= -1e-8)
        # the endpoints are diagonal and non-uniform, so dF/dgamma is nonzero there
        norms = np.array([float(r[2]) for r in rows])
        assert np.all(np.isfinite(norms)) and norms[0] > 0 and norms[-1] > 0

    def test_sampled_targets(self, tmp_path):
        cfg = {"model": ZERO_MODEL, "beta": 1.0, "samples": {"count": 3, "seed": 5}}
        code, out = run(tmp_path, "functional", cfg)
        assert code == 0
        _, rows = read_csv(out / "functional_values.csv")
        assert len(rows) == 3
        assert all(int(r[3]) <= 30 for r in rows)

    def test_boundary_target_exits_3(self, tmp_path, capsys):
        cfg = {
            "model": ZERO_MODEL,
            "beta": 1.0,
            "targets": [{"occupations": [1.0, 1.0, 0.0]}],
        }
        code, _ = run(tmp_path, "functional", cfg)
        assert code == 3
        # the same reason as the library's, located by the target index
        system = build_system(ModelSpec(kind="zero", nb=3, n=2, statistics=Statistics.FERMION))
        with pytest.raises(NotRepresentableError) as exc:
            universal_functional(OneRdm(np.diag([1.0, 1.0, 0.0])), system, EnsembleParams(1.0))
        assert capsys.readouterr().err == f"not representable: target 0: {exc.value}\n"

    def test_needs_some_target_stanza(self, tmp_path):
        code, _ = run(tmp_path, "functional", {"model": ZERO_MODEL, "beta": 1.0})
        assert code == 2


class TestVerify:
    TINY = {
        "checks": ["omega_concavity", "injectivity"],
        "systems": [[3, 2, "fermion"]],
        "beta": 1.0,
        "models": [{"kind": "zero"}],
        "trials": 3,
        "seed": 5,
    }

    def test_tiny_suite_passes(self, tmp_path, capsys):
        code, out = run(tmp_path, "verify", self.TINY)
        assert code == 0
        report = json.loads((out / "theorem_reports.json").read_text())
        assert report["failures"] == 0
        assert len(report["reports"]) == 2
        _, rows = read_csv(out / "verify_summary.csv")
        assert [r[0] for r in rows] == ["omega_concavity", "injectivity"]
        assert all(int(r[7]) == 0 for r in rows)
        printed = capsys.readouterr().out
        assert "omega_concavity" in printed
        assert "0 trial failures" in printed

    def test_unknown_check_exits_2(self, tmp_path):
        cfg = {**self.TINY, "checks": ["omega_concavity", "bogus"]}
        code, _ = run(tmp_path, "verify", cfg)
        assert code == 2

    def test_unknown_tolerance_exits_2(self, tmp_path):
        cfg = {**self.TINY, "tolerances": {"slackness": 1.0}}
        code, _ = run(tmp_path, "verify", cfg)
        assert code == 2

    def test_seed_flag_matches_config_seed(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        code_a, out_a = run(a, "verify", self.TINY)
        no_seed = {k: v for k, v in self.TINY.items() if k != "seed"}
        code_b, out_b = run(b, "verify", no_seed, seed=5)
        assert code_a == code_b == 0
        assert (out_a / "theorem_reports.json").read_text() == (
            out_b / "theorem_reports.json"
        ).read_text()


# name: (command, config, a fragment the error message must name)
MALFORMED = {
    "verify_trials": ("verify", {**TestVerify.TINY, "trials": "x"}, "trials"),
    "verify_seed": ("verify", {**TestVerify.TINY, "seed": "s"}, "seed"),
    "verify_tolerance": ("verify", {**TestVerify.TINY, "tolerances": {"coleman_tol": "abc"}}, "coleman_tol"),
    "verify_model_key": ("verify", {**TestVerify.TINY, "models": [{"kind": "zero", "bogus": 1}]}, "bogus"),
    "verify_model_value": ("verify", {**TestVerify.TINY, "models": [{"kind": "zero", "u": "big"}]}, "'big'"),
    "verify_no_basis": (
        "verify",
        {**TestVerify.TINY, "systems": [[3, 2, "fermion"], [3, 3, "fermion"]]},
        "nb > n",
    ),
    "verify_nb_1": (
        "verify",
        {**TestVerify.TINY, "checks": ["gradient"], "systems": [[3, 2, "fermion"], [1, 1, "boson"]]},
        "nb >= 2",
    ),
    "verify_checks_string": ("verify", {**TestVerify.TINY, "checks": "coleman"}, "checks must be"),
    "gibbs_count": ("gibbs", {"model": ZERO_MODEL, "beta": 1.0, "potentials": {"count": "two"}}, "count"),
    "functional_count": ("functional", {"model": ZERO_MODEL, "beta": 1.0, "samples": {"count": "x"}}, "count"),
    "functional_points": ("functional", {"model": ZERO_MODEL, "beta": 1.0, "segment": {"points": "x"}}, "points"),
    "functional_targets": ("functional", {"model": ZERO_MODEL, "beta": 1.0, "targets": 5}, "targets"),
    "polytope_n": ("polytope", {"statistics": "fermion", "n": "two", "occupations": [1.0, 0.5]}, "'two'"),
    "polytope_occupations": ("polytope", {"statistics": "fermion", "n": 2, "occupations": "abc"}, "occupations"),
    "invert_sample": ("invert", {"model": ZERO_MODEL, "beta": 1.0, "target": {"sample": 3}}, "sample"),
    # options deleted along with the norm cap and the stagnation window
    "invert_norm_cap": (
        "invert",
        {"model": ZERO_MODEL, "beta": 1.0, "target": {"sample": {"seed": 1}}, "options": {"norm_cap": 5.0}},
        "norm_cap",
    ),
    "invert_stagnation_window": (
        "invert",
        {"model": ZERO_MODEL, "beta": 1.0, "target": {"sample": {"seed": 1}}, "options": {"stagnation_window": 3}},
        "stagnation_window",
    ),
    # solver options out of range, each on the README's interior target
    **{
        f"invert_{name}": (
            "invert",
            {"model": ZERO_MODEL, "beta": 1.0, "target": {"occupations": [0.9, 0.6, 0.5]}, "options": options},
            reason,
        )
        for name, options, reason in [
            ("classify_tol_negative", {"classify_tol": -1.0}, "classify_tol"),
            ("max_iter_negative", {"max_iter": -3}, "max_iter"),
            ("max_iter_zero", {"max_iter": 0}, "max_iter"),
            ("tol_negative", {"tol": -1.0}, "tol"),
            ("tol_nan", {"tol": float("nan")}, "tol"),
        ]
    },
    # invert and functional run at one temperature
    "invert_betas": (
        "invert",
        {"model": ZERO_MODEL, "betas": [1.0, 50.0], "target": {"occupations": [0.9, 0.6, 0.5]}},
        "one beta",
    ),
    "invert_betas_empty": (
        "invert",
        {"model": ZERO_MODEL, "betas": [], "target": {"occupations": [0.9, 0.6, 0.5]}},
        "one beta",
    ),
    "functional_betas": (
        "functional",
        {"model": ZERO_MODEL, "betas": [1.0, 50.0], "targets": [{"occupations": [0.9, 0.6, 0.5]}]},
        "one beta",
    ),
    "invert_occupations": (
        "invert",
        {"model": ZERO_MODEL, "beta": 1.0, "target": {"occupations": ["a", "b", "c"]}},
        "'a'",
    ),
    # misspelled top-level keys, which every command used to skip
    "verify_unknown_key": ("verify", {**TestVerify.TINY, "trails": 2}, "trails"),
    "gibbs_unknown_key": ("gibbs", {"model": ZERO_MODEL, "beta": 1.0, "potential": {"count": 2}}, "potential"),
    "invert_unknown_key": (
        "invert",
        {"model": ZERO_MODEL, "beta": 1.0, "target": {"occupations": [0.9, 0.6, 0.5]}, "option": {"tol": 1.0}},
        "option",
    ),
    "functional_unknown_key": (
        "functional",
        {"model": ZERO_MODEL, "beta": 1.0, "samples": {"count": 1, "seed": 2}, "segments": {}},
        "segments",
    ),
    "polytope_unknown_key": (
        "polytope",
        {"statistics": "fermion", "n": 2, "occupations": [1.0, 0.5, 0.5], "gama": []},
        "gama",
    ),
}


@pytest.mark.parametrize("command,cfg,reason", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_config_exits_2(tmp_path, capsys, command, cfg, reason):
    code, _ = run(tmp_path, command, cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and reason in err


class TestPolytope:
    def test_half_filled_pair(self, tmp_path):
        cfg = {"statistics": "fermion", "n": 2, "occupations": [1.0, 0.5, 0.5]}
        code, out = run(tmp_path, "polytope", cfg)
        assert code == 0
        _, rows = read_csv(out / "decomposition.csv")
        assert len(rows) == 2
        assert [r[1] for r in rows] == [repr(0.5), repr(0.5)]
        assert [r[2] for r in rows] == ["0 1", "0 2"]
        header, bary = read_csv(out / "barycentric.csv")
        assert header == ["point", "b0", "b1", "b2"]
        assert len(bary) == 3
        assert bary[0][0] == "input"

    def test_bosonic_simplex(self, tmp_path):
        cfg = {"statistics": "boson", "n": 2, "occupations": [1.5, 0.5]}
        code, out = run(tmp_path, "polytope", cfg)
        assert code == 0
        _, rows = read_csv(out / "decomposition.csv")
        assert [(r[1], r[2]) for r in rows] == [(repr(0.75), "0 0"), (repr(0.25), "1 1")]
        assert not (out / "barycentric.csv").exists()

    def test_infeasible_exits_3(self, tmp_path):
        cfg = {"statistics": "fermion", "n": 2, "occupations": [1.2, 0.5, 0.3]}
        code, _ = run(tmp_path, "polytope", cfg)
        assert code == 3

    def test_missing_n_exits_2(self, tmp_path):
        cfg = {"statistics": "fermion", "occupations": [1.0, 0.5, 0.5]}
        code, _ = run(tmp_path, "polytope", cfg)
        assert code == 2


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, tmp_path):
        cfg = {
            "model": {**ZERO_MODEL, "kind": "random_full", "seed": 13},
            "betas": [0.5, 2.0],
            "potentials": {"count": 2, "norm": 0.7, "seed": 3},
        }
        first = tmp_path / "first"
        second = tmp_path / "second"
        first.mkdir()
        second.mkdir()
        _, out_a = run(first, "gibbs", cfg)
        _, out_b = run(second, "gibbs", cfg)
        for name in ["gibbs_summary.csv", "occupations.csv", "rdm_000.json", "rdm_003.json"]:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        # sidecars agree except for the timestamp
        meta_a = json.loads((out_a / "gibbs_summary.meta.json").read_text())
        meta_b = json.loads((out_b / "gibbs_summary.meta.json").read_text())
        meta_a.pop("generated_at")
        meta_b.pop("generated_at")
        assert meta_a == meta_b


# a null seed must read as an absent one, so that the derived seed is used
NULL_SEEDS = {
    "verify_model": ("verify", {**TestVerify.TINY, "models": [{"kind": "random_full", "seed": None}]}, "theorem_reports.json"),
    "gibbs_model": (
        "gibbs",
        {"model": {**ZERO_MODEL, "kind": "random_full", "seed": None}, "beta": 1.0, "seed": 3},
        "gibbs_summary.csv",
    ),
    "invert_sample": (
        "invert",
        {"model": ZERO_MODEL, "beta": 1.0, "target": {"sample": {"seed": None}}, "seed": 3},
        "inversion_report.json",
    ),
}


@pytest.mark.parametrize("command,cfg,report", NULL_SEEDS.values(), ids=NULL_SEEDS.keys())
def test_null_seed_reproduces_reports(tmp_path, command, cfg, report):
    outputs = []
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        code, out = run(tmp_path / name, command, cfg)
        assert code == 0
        outputs.append((out / report).read_bytes())
    assert outputs[0] == outputs[1]


class TestTopLevel:
    def test_config_must_be_object(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2, 3]")
        assert main(["gibbs", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_missing_config_file(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["gibbs", "--config", missing, "--out", str(tmp_path)]) == 2

    def test_console_script(self, tmp_path):
        exe = shutil.which("rdmft")
        assert exe is not None, "console script not installed"
        cfg = {"statistics": "fermion", "n": 2, "occupations": [1.0, 0.5, 0.5]}
        path = write_config(tmp_path, cfg)
        result = subprocess.run(
            [exe, "polytope", "--config", path, "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "2 terms" in result.stdout
