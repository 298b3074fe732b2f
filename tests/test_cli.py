"""End-to-end command-line runs into temporary directories.

Everything goes through main(argv) for speed; one subprocess test at
the bottom covers the installed console script.
"""

import csv
import json
import shutil
import subprocess
from dataclasses import asdict, dataclass, fields, replace

import numpy as np
import numpy.testing as npt
import pytest

from rdmft.cli import main
from rdmft.ensemble import EnsembleParams, OneRdm
from rdmft.errors import NotRepresentableError
from rdmft.fock import Statistics
from rdmft.functional import (
    InversionOptions,
    InversionReport,
    IterationRecord,
    invert_potential,
    invert_potentials,
    omega_of_v,
    potential_basis,
    universal_functional,
)
from rdmft.models import ModelSpec, build_system
from rdmft.serialize import canonical_json, inversion_report_to_json, matrix_from_json, matrix_to_json, rdm_from_json

ZERO_MODEL = {"kind": "zero", "nb": 3, "n": 2, "statistics": "fermion"}
ONE_ORBITAL = {"kind": "zero", "nb": 1, "n": 1, "statistics": "boson"}


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

    def test_one_orbital(self, tmp_path):
        """Gibbs states at v = 0 need no potential space."""
        code, out = run(tmp_path, "gibbs", {"model": ONE_ORBITAL, "beta": 1.0})
        assert code == 0
        _, occ_rows = read_csv(out / "occupations.csv")
        assert [float(r[3]) for r in occ_rows] == pytest.approx([1.0])

    def test_occupations_stay_off_the_faces_at_huge_scale(self, tmp_path):
        """At h_scale 1e308 the eigensolver's residue can put a Gibbs
        occupation just past a face (seed 6 draws one below 0 and one above
        1 with OpenBLAS 0.3.31); the report clips it back.  The residue
        depends on the BLAS, so only the sign is asserted.  The seed is
        pinned: an unseeded model is drawn afresh, and some draws overflow."""
        model = {"kind": "random_full", "nb": 3, "n": 2, "statistics": "fermion", "h_scale": 1e308, "seed": 6}
        code, out = run(tmp_path, "gibbs", {"model": model, "beta": 1.0})
        assert code == 0
        _, occ_rows = read_csv(out / "occupations.csv")
        assert all(float(r[3]) >= 0.0 and float(r[4]) >= 0.0 for r in occ_rows)

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

    def test_refused_run_leaves_no_file(self, tmp_path):
        """Every (beta, potential) run is checked before any file is
        written: the second beta overflows, and the first run's rdm_000.json
        is not left behind."""
        model = {"kind": "hubbard_ring", "nb": 3, "n": 2, "statistics": "fermion"}
        code, out = run(tmp_path, "gibbs", {"model": model, "betas": [1.0, 1.7e308]})
        assert code == 2
        assert list(out.iterdir()) == []

    def test_two_body_norm_past_the_lift_round_off(self, tmp_path):
        """At w_norm = 1e5 the lift's round-off exceeds 1e-12 in absolute
        terms; the model is valid, so gibbs runs it."""
        model = {"kind": "random_full", "nb": 4, "n": 2, "statistics": "fermion", "w_norm": 1e5, "seed": 1}
        code, out = run(tmp_path, "gibbs", {"model": model, "beta": 1.0})
        assert code == 0
        header, rows = read_csv(out / "gibbs_summary.csv")
        assert np.isfinite(float(dict(zip(header, rows[0]))["omega"]))


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
        assert header == ["iteration", "g_value", "residual", "step_norm", "fresh_jacobian"]
        assert len(trace_rows) == report["iterations"]
        # dim 3 takes exact Newton steps: one Jacobian per step
        assert report["jacobians"] == report["iterations"] - 1
        fresh = [True] * report["jacobians"] + [False]
        assert [r["fresh_jacobian"] for r in report["trace"]] == fresh
        assert [row[-1] for row in trace_rows] == [str(int(f)) for f in fresh]
        occupations = np.linalg.eigvalsh(gamma.matrix)
        assert report["face_distance"] == pytest.approx(min(occupations.min(), 1 - occupations.max()), abs=1e-12)

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
        assert report["iterations"] == report["jacobians"] == 0
        header, trace_rows = read_csv(out / "newton_trace.csv")
        assert header == ["iteration", "g_value", "residual", "step_norm", "fresh_jacobian"]
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

    def test_initial_zeros_start_where_the_default_does(self, tmp_path):
        cfg = {"model": ZERO_MODEL, "beta": 1.0, "target": {"occupations": [0.9, 0.6, 0.5]}}
        reports = []
        for name, options in (("default", {}), ("zeros", {"initial": [0] * 8})):
            (tmp_path / name).mkdir()
            code, out = run(tmp_path / name, "invert", {**cfg, "options": options})
            assert code == 0
            reports.append((out / "inversion_report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_max_iterations_exits_1(self, tmp_path):
        cfg = {"model": ZERO_MODEL, "beta": 1.0, "target": {"occupations": [0.9, 0.6, 0.5]}, "options": {"max_iter": 1}}
        code, out = run(tmp_path, "invert", cfg)
        assert code == 1
        report = json.loads((out / "inversion_report.json").read_text())
        assert report["verdict"] == "max_iterations"

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


class TestRecordSchemas:
    """The reports' keys and columns are the fields of their dataclasses."""

    def test_inversion_report_and_trace(self, tmp_path):
        code, out = run(tmp_path, "invert", {"model": ZERO_MODEL, "beta": 1.0, "target": {"sample": {"seed": 1}}})
        assert code == 0
        report = json.loads((out / "inversion_report.json").read_text())
        assert set(report) == {f.name for f in fields(InversionReport)} | {"gradient"}
        names = [f.name for f in fields(IterationRecord)]
        assert report["trace"] and all(sorted(entry) == sorted(names) for entry in report["trace"])
        header, rows = read_csv(out / "newton_trace.csv")
        assert header == names
        assert len(rows) == len(report["trace"])

    def test_added_fields_reach_the_json(self):
        @dataclass(frozen=True)
        class Record(IterationRecord):
            backtracks: int = 0

        @dataclass(frozen=True, eq=False)
        class Report(InversionReport):
            stop_reason: str = "tolerance"

        system = build_system(ModelSpec(**{**ZERO_MODEL, "statistics": Statistics.FERMION}))
        report = invert_potential(OneRdm(np.diag([0.9, 0.6, 0.5])), system, EnsembleParams(1.0))
        trace = tuple(Record(**asdict(r), backtracks=k) for k, r in enumerate(report.trace))
        extended = Report(**{f.name: getattr(report, f.name) for f in fields(report)})
        extended = replace(extended, trace=trace)
        obj = json.loads(canonical_json(inversion_report_to_json(extended)))
        assert obj["stop_reason"] == "tolerance"
        assert [entry["backtracks"] for entry in obj["trace"]] == list(range(len(trace)))
        assert obj["v_star"] == json.loads(canonical_json(inversion_report_to_json(report)))["v_star"]


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

    def test_stopped_inversion_exits_1(self, tmp_path, capsys, monkeypatch):
        # an interior target whose inversion stops short is neither a config
        # error nor non-representable: main's generic exit 1
        def one_step(targets, system, params):
            return invert_potentials(targets, system, params, InversionOptions(max_iter=1))

        monkeypatch.setattr("rdmft.cli.invert_potentials", one_step)
        cfg = {"model": ZERO_MODEL, "beta": 1.0, "targets": [{"occupations": [0.9, 0.6, 0.5]}]}
        code, _ = run(tmp_path, "functional", cfg)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: target 0: ")

    def test_stopped_segment_point_is_named(self, tmp_path, capsys, monkeypatch):
        # a segment point whose inversion stops short is named like a target
        def one_step(targets, system, params):
            return invert_potentials(targets, system, params, InversionOptions(max_iter=1))

        monkeypatch.setattr("rdmft.cli.invert_potentials", one_step)
        segment = {"from": {"occupations": [0.9, 0.6, 0.5]}, "to": {"occupations": [0.5, 0.75, 0.75]}, "points": 3}
        code, _ = run(tmp_path, "functional", {"model": ZERO_MODEL, "beta": 1.0, "segment": segment})
        assert code == 1
        assert capsys.readouterr().err.startswith("error: target 0: ")

    def test_needs_some_target_stanza(self, tmp_path):
        code, _ = run(tmp_path, "functional", {"model": ZERO_MODEL, "beta": 1.0})
        assert code == 2


HUBBARD_4_2 = {"kind": "hubbard_ring", "nb": 4, "n": 2, "statistics": "fermion"}


class TestNormsPastTheSquareRange:
    """Potentials near 1e300 are representable although their sums of
    squares overflow: at beta = 1e-300 v* is of that size, and so is a
    random potential of norm 1e300."""

    CASES = {
        "invert": ("invert", {"model": HUBBARD_4_2, "beta": 1e-300, "target": {"sample": {"seed": 1}}}),
        "samples": ("functional", {"model": HUBBARD_4_2, "beta": 1e-300, "samples": {"count": 2, "seed": 1}}),
        "segment": (
            "functional",
            {
                "model": HUBBARD_4_2,
                "beta": 1e-300,
                "segment": {"from": {"sample": {"seed": 1}}, "to": {"sample": {"seed": 2}}, "points": 3},
            },
        ),
        "gibbs": ("gibbs", {"model": HUBBARD_4_2, "beta": 1.0, "potentials": {"count": 2, "norm": 1e300}}),
    }
    NORM_COLUMNS = ("potential_norm", "v_star_norm", "gradient_norm", "step_norm")

    @pytest.mark.parametrize("command,cfg", CASES.values(), ids=CASES.keys())
    def test_outputs_are_finite_json_and_warn_nothing(self, tmp_path, command, cfg, recwarn):
        code, out = run(tmp_path, command, cfg)
        assert code == 0
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        for path in out.glob("*.json"):
            json.loads(path.read_text(), parse_constant=refuse)
        norms = []
        for path in out.glob("*.csv"):
            header, rows = read_csv(path)
            norms += [float(row[k]) for row in rows for k, name in enumerate(header) if name in self.NORM_COLUMNS]
        assert norms and np.all(np.isfinite(norms)) and max(norms) > 1e154


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


# a finite hopping that overflows the lifted Hamiltonian
HUGE_HOP = {"kind": "hubbard_ring", "t_hop": 1e308}

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
    # configuration codes must fit the index range: base 2 for fermions, n + 1 for bosons
    "gibbs_codes_overflow": ("gibbs", {"model": {**ZERO_MODEL, "nb": 63, "n": 1}, "beta": 1.0}, "2**63"),
    "verify_codes_overflow": ("verify", {**TestVerify.TINY, "systems": [[63, 1, "fermion"]]}, "bad suite grid"),
    # model parameters: Frobenius norms are non-negative, and the lifted
    # Hamiltonian must be finite, whether the point runs here or in a worker
    "gibbs_h_scale_negative": (
        "gibbs",
        {"model": {**ZERO_MODEL, "kind": "random_full", "h_scale": -1}, "beta": 1.0},
        "h_scale",
    ),
    "gibbs_t_hop_overflow": ("gibbs", {"model": {**ZERO_MODEL, **HUGE_HOP}, "beta": 1.0}, "overflows"),
    "verify_w_norm_negative": (
        "verify",
        {**TestVerify.TINY, "models": [{"kind": "random_full", "w_norm": -1}]},
        "w_norm",
    ),
    "verify_t_hop_overflow": ("verify", {**TestVerify.TINY, "models": [HUGE_HOP]}, "overflows"),
    "verify_t_hop_overflow_in_worker": (
        "verify",
        {**TestVerify.TINY, "systems": [[3, 2, "fermion"], [4, 2, "fermion"]], "models": [HUGE_HOP]},
        "overflows",
    ),
    "gibbs_count": ("gibbs", {"model": ZERO_MODEL, "beta": 1.0, "potentials": {"count": "two"}}, "count"),
    "functional_count": ("functional", {"model": ZERO_MODEL, "beta": 1.0, "samples": {"count": "x"}}, "count"),
    "functional_points": ("functional", {"model": ZERO_MODEL, "beta": 1.0, "segment": {"points": "x"}}, "points"),
    "functional_targets": ("functional", {"model": ZERO_MODEL, "beta": 1.0, "targets": 5}, "targets"),
    "polytope_n": ("polytope", {"statistics": "fermion", "n": "two", "occupations": [1.0, 0.5]}, "'two'"),
    "polytope_occupations": ("polytope", {"statistics": "fermion", "n": 2, "occupations": "abc"}, "occupations"),
    "invert_sample": ("invert", {"model": ZERO_MODEL, "beta": 1.0, "target": {"sample": 3}}, "sample"),
    # one orbital has no potential space to invert in; gibbs still runs there
    "invert_nb_one": ("invert", {"model": ONE_ORBITAL, "beta": 1.0, "target": {"occupations": [1.0]}}, "nb >= 2"),
    "functional_nb_one": ("functional", {"model": ONE_ORBITAL, "beta": 1.0, "samples": {"count": 2}}, "nb >= 2"),
    "polytope_fermions_past_orbitals": (
        "polytope",
        {"statistics": "fermion", "n": 5, "occupations": [0.5, 0.5]},
        "5 fermions",
    ),
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
    # empty grids and non-positive counts, which used to run no work and exit 0
    "gibbs_betas_empty": ("gibbs", {"model": ZERO_MODEL, "betas": []}, "one beta"),
    "gibbs_count_zero": ("gibbs", {"model": ZERO_MODEL, "beta": 1.0, "potentials": {"count": 0}}, "count"),
    "gibbs_count_negative": ("gibbs", {"model": ZERO_MODEL, "beta": 1.0, "potentials": {"count": -1}}, "count"),
    "gibbs_potentials_empty": ("gibbs", {"model": ZERO_MODEL, "beta": 1.0, "potentials": []}, "potentials"),
    "gibbs_norm_negative": ("gibbs", {"model": ZERO_MODEL, "beta": 1.0, "potentials": {"norm": -1.0}}, "norm"),
    # non-finite numbers, which json reads from the literals NaN and Infinity
    "gibbs_norm_nan": ("gibbs", {"model": ZERO_MODEL, "beta": 1.0, "potentials": {"norm": float("nan")}}, "finite"),
    "gibbs_potential_nan": (
        "gibbs",
        {"model": ZERO_MODEL, "beta": 1.0, "potentials": [{"shape": [3, 3], "data": [float("nan")] + [0.0] * 17}]},
        "finite",
    ),
    "gibbs_potential_wrong_size": (
        "gibbs",
        {
            "model": HUBBARD_4_2,
            "beta": 1.0,
            "potentials": [{"shape": [4, 4], "data": [0.0] * 32}, {"shape": [3, 3], "data": [0.0] * 18}],
        },
        "bad potential entry 1: expected a 4x4 matrix, got (3, 3)",
    ),
    "functional_target_wrong_size": (
        "functional",
        {
            "model": HUBBARD_4_2,
            "beta": 1.0,
            "targets": [{"occupations": [0.5, 0.5, 0.5, 0.5]}, {"occupations": [0.6, 0.7, 0.7]}],
        },
        "bad target entry 1: occupations must have length nb=4",
    ),
    "gibbs_beta_past_float_range": ("gibbs", {"model": ZERO_MODEL, "beta": 10**400}, "finite"),
    "invert_occupations_nan": (
        "invert",
        {"model": ZERO_MODEL, "beta": 1.0, "target": {"occupations": [float("nan"), 0.6, 0.6]}},
        "finite",
    ),
    "verify_betas_empty": ("verify", {**TestVerify.TINY, "beta": None, "betas": []}, "one beta"),
    "verify_systems_empty": ("verify", {**TestVerify.TINY, "systems": []}, "systems"),
    "verify_models_empty": ("verify", {**TestVerify.TINY, "models": []}, "models"),
    "verify_trials_zero": ("verify", {**TestVerify.TINY, "trials": 0}, "trials"),
    "verify_trials_negative": ("verify", {**TestVerify.TINY, "trials": -2}, "trials"),
    "verify_fractional_betas_empty": (
        "verify",
        {**TestVerify.TINY, "tolerances": {"fractional_betas": []}},
        "fractional_betas",
    ),
    # tolerances out of range, which crashed or failed every trial
    **{
        f"verify_{name}": ("verify", {**TestVerify.TINY, "tolerances": tolerances}, reason)
        for name, tolerances, reason in [
            ("fd_step_zero", {"fd_step": 0}, "fd_step"),
            ("fd_step_infinite", {"fd_step": 1e400}, "fd_step"),
            ("fractional_betas_negative", {"fractional_betas": [-1.0]}, "fractional_betas"),
            ("v_scale_zero", {"v_scale": 0}, "v_scale"),
            ("fractional_v_scale_negative", {"fractional_v_scale": -0.3}, "fractional_v_scale"),
            ("separation_negative", {"separation": -0.1}, "separation"),
        ]
    },
    # particle numbers and occupation vectors that used to exit 1
    "polytope_n_zero": ("polytope", {"statistics": "fermion", "n": 0, "occupations": [0, 0, 0]}, "n must"),
    "polytope_n_negative": ("polytope", {"statistics": "fermion", "n": -1, "occupations": [0, 0, 0]}, "n must"),
    "polytope_occupations_empty": ("polytope", {"statistics": "fermion", "n": 2, "occupations": []}, "occupations"),
    "functional_count_zero": ("functional", {"model": ZERO_MODEL, "beta": 1.0, "samples": {"count": 0}}, "count"),
    "functional_targets_empty": ("functional", {"model": ZERO_MODEL, "beta": 1.0, "targets": []}, "targets"),
    "invert_occupations": (
        "invert",
        {"model": ZERO_MODEL, "beta": 1.0, "target": {"occupations": ["a", "b", "c"]}},
        "'a'",
    ),
    # misspelled top-level keys, which every command used to skip
    "verify_unknown_key": ("verify", {**TestVerify.TINY, "trails": 2}, "trails"),
    "gibbs_unknown_key": ("gibbs", {"model": ZERO_MODEL, "beta": 1.0, "potential": {"count": 2}}, "potential"),
    "invert_initial_length": (
        "invert",
        {"model": ZERO_MODEL, "beta": 1.0, "target": {"occupations": [0.9, 0.6, 0.5]}, "options": {"initial": [0] * 3}},
        "K = nb^2 - 1 = 8",
    ),
    "invert_initial_not_list": (
        "invert",
        {"model": ZERO_MODEL, "beta": 1.0, "target": {"occupations": [0.9, 0.6, 0.5]}, "options": {"initial": 0.0}},
        "initial must be a list of numbers",
    ),
    "invert_initial_nan": (
        "invert",
        # json.dumps writes the float NaN as the literal NaN
        {
            "model": ZERO_MODEL,
            "beta": 1.0,
            "target": {"occupations": [0.9, 0.6, 0.5]},
            "options": {"initial": [0.0] * 7 + [float("nan")]},
        },
        "finite",
    ),
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
    # every other config error a command raises, each with its fragment
    "gibbs_model_without_nb": (
        "gibbs",
        {"model": {"kind": "zero", "n": 2, "statistics": "fermion"}, "beta": 1.0},
        "model config",
    ),
    "verify_model_without_kind": ("verify", {**TestVerify.TINY, "models": [{"u": 1.0}]}, "'kind'"),
    "gibbs_beta_zero": ("gibbs", {"model": ZERO_MODEL, "beta": 0.0}, "bad beta grid"),
    "gibbs_random_potentials_nb_one": (
        "gibbs",
        {"model": ONE_ORBITAL, "beta": 1.0, "potentials": {"count": 2}},
        "nb >= 2",
    ),
    "gibbs_potentials_number": ("gibbs", {"model": ZERO_MODEL, "beta": 1.0, "potentials": 5}, "object or a list"),
    "invert_target_number": ("invert", {"model": ZERO_MODEL, "beta": 1.0, "target": 5}, "JSON object"),
    "invert_occupations_short": (
        "invert",
        {"model": ZERO_MODEL, "beta": 1.0, "target": {"occupations": [1.0, 1.0]}},
        "length nb=3",
    ),
    "invert_target_empty": ("invert", {"model": ZERO_MODEL, "beta": 1.0, "target": {}}, "'sample'"),
    "invert_matrix_2x2": (
        "invert",
        {"model": ZERO_MODEL, "beta": 1.0, "target": {"matrix": matrix_to_json(np.eye(2))}},
        "2x2",
    ),
    "functional_segment_one_point": (
        "functional",
        {"model": ZERO_MODEL, "beta": 1.0, "segment": {"points": 1}},
        "at least 2 points",
    ),
    "polytope_no_input": ("polytope", {"statistics": "fermion", "n": 2}, "'occupations' or 'gamma'"),
    "polytope_gamma_short": (
        "polytope",
        {"statistics": "fermion", "n": 1, "gamma": {"shape": [2, 2], "data": [1.0, 0.0]}},
        "does not match shape",
    ),
    "polytope_unknown_key": (
        "polytope",
        {"statistics": "fermion", "n": 2, "occupations": [1.0, 0.5, 0.5], "gama": []},
        "gama",
    ),
    # misspelled keys of nested objects, which ran on their defaults
    "gibbs_potentials_unknown_key": (
        "gibbs",
        {"model": ZERO_MODEL, "beta": 1.0, "potentials": {"count": 2, "nrom": 5.0}},
        "nrom",
    ),
    "invert_sample_unknown_key": (
        "invert",
        {"model": ZERO_MODEL, "beta": 1.0, "target": {"sample": {"seed": 3, "interiour": False}}},
        "interiour",
    ),
    "invert_target_unknown_key": (
        "invert",
        {"model": ZERO_MODEL, "beta": 1.0, "target": {"occupation": [0.9, 0.6, 0.5]}},
        "unknown target keys: ['occupation']",
    ),
    "functional_samples_unknown_key": ("functional", {"model": ZERO_MODEL, "beta": 1.0, "samples": {"cuont": 3}}, "cuont"),
    "functional_segment_unknown_key": (
        "functional",
        {
            "model": ZERO_MODEL,
            "beta": 1.0,
            "segment": {"from": {"occupations": [0.9, 0.6, 0.5]}, "to": {"occupations": [0.5, 0.75, 0.75]}, "pionts": 3},
        },
        "pionts",
    ),
    # a target names one form, where it used to take the first it found
    "invert_target_two_forms": (
        "invert",
        {"model": ZERO_MODEL, "beta": 1.0, "target": {"occupations": [0.9, 0.6, 0.5], "sample": {"seed": 3}}},
        "['occupations', 'sample']",
    ),
    # (v + v+)/2 overflows in the lift, which wrote nan for omega, energy and log_z
    "gibbs_potential_overflow": (
        "gibbs",
        {
            "model": {"kind": "zero", "nb": 2, "n": 1, "statistics": "fermion"},
            "beta": 1.0,
            "potentials": [{"shape": [2, 2], "data": [1e308, 0, 0, 0, 0, 0, -1e308, 0]}],
        },
        "potential 0 overflows",
    ),
    # a finite beta whose Boltzmann factors overflow wrote omega = inf and log_z = -inf
    "gibbs_beta_overflow": (
        "gibbs",
        {"model": {"kind": "hubbard_ring", "nb": 3, "n": 2, "statistics": "fermion"}, "beta": 1.7e308},
        "beta 1.7e+308 overflows the Gibbs state of potential 0",
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

    def test_bosons_past_orbital_count(self, tmp_path):
        cfg = {"statistics": "boson", "n": 5, "occupations": [2.5, 2.5]}
        code, out = run(tmp_path, "polytope", cfg)
        assert code == 0
        _, rows = read_csv(out / "decomposition.csv")
        assert [(r[1], r[2]) for r in rows] == [(repr(0.5), "0 0 0 0 0"), (repr(0.5), "1 1 1 1 1")]

    def test_fermion_gamma_counts_natural_orbitals(self, tmp_path):
        # natural occupations 0.5 +- sqrt(0.02), vertex 0 the larger
        gamma = matrix_to_json(np.array([[0.6, 0.1], [0.1, 0.4]]))
        code, out = run(tmp_path, "polytope", {"statistics": "fermion", "n": 1, "gamma": gamma})
        assert code == 0
        _, rows = read_csv(out / "decomposition.csv")
        assert [r[2] for r in rows] == ["0", "1"]
        npt.assert_allclose([float(r[1]) for r in rows], [0.5 + np.sqrt(0.02), 0.5 - np.sqrt(0.02)], rtol=1e-12)

    def test_gamma_writes_the_natural_orbitals_vertices_count(self, tmp_path):
        gamma = np.array([[0.6, 0.1], [0.1, 0.4]])
        code, out = run(tmp_path, "polytope", {"statistics": "fermion", "n": 1, "gamma": matrix_to_json(gamma)})
        assert code == 0
        natural = json.loads((out / "natural_orbitals.json").read_text())
        occ, orbitals = np.array(natural["occupations"]), matrix_from_json(natural["orbitals"])
        assert occ[0] > occ[1]
        # column k is the orbital that vertex index k counts
        npt.assert_allclose(gamma @ orbitals, orbitals @ np.diag(occ), rtol=0, atol=1e-12)
        npt.assert_allclose(orbitals.conj().T @ orbitals, np.eye(2), rtol=0, atol=1e-12)

    def test_occupations_write_no_natural_orbitals(self, tmp_path):
        code, out = run(tmp_path, "polytope", {"statistics": "fermion", "n": 2, "occupations": [1.0, 0.5, 0.5]})
        assert code == 0
        assert not (out / "natural_orbitals.json").exists()

    def test_boson_gamma_splits_over_corners(self, tmp_path):
        gamma = matrix_to_json(np.diag([1.0, 0.5, 0.5]))
        code, out = run(tmp_path, "polytope", {"statistics": "boson", "n": 2, "gamma": gamma})
        assert code == 0
        _, rows = read_csv(out / "decomposition.csv")
        assert [r[2] for r in rows] == ["0 0", "1 1", "2 2"]
        npt.assert_allclose([float(r[1]) for r in rows], [0.5, 0.25, 0.25], rtol=1e-12)

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
    # no seed anywhere: the default seed, not the OS's entropy
    "gibbs_unseeded": ("gibbs", {"model": {**ZERO_MODEL, "kind": "random_full"}, "beta": 1.0}, "gibbs_summary.csv"),
    "invert_unseeded": ("invert", {"model": ZERO_MODEL, "beta": 1.0, "target": {"sample": {}}}, "inversion_report.json"),
    # a null sample is the default sample
    "invert_null_sample": ("invert", {"model": ZERO_MODEL, "beta": 1.0, "target": {"sample": None}}, "inversion_report.json"),
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

    def test_out_naming_a_file_is_config_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        argv = ["gibbs", "--config", write_config(tmp_path, {"model": ZERO_MODEL, "beta": 1.0})]
        for out in (taken, taken / "below"):
            assert main([*argv, "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(f"config error: cannot create output directory {out}: ")
        assert taken.read_text() == "not a directory\n"

    def test_non_finite_output_exits_1_and_writes_no_file(self, tmp_path, capsys, monkeypatch):
        # strict JSON: an output holding a NaN is refused, naming the file
        monkeypatch.setattr("rdmft.cli.matrix_to_json", lambda m: {"shape": [1], "data": [float("nan")]})
        cfg = {"statistics": "fermion", "n": 1, "gamma": matrix_to_json(np.diag([0.5, 0.5]))}
        code, out = run(tmp_path, "polytope", cfg)
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out / 'natural_orbitals.json'}: ")
        assert sorted(p.name for p in out.iterdir()) == ["decomposition.csv", "decomposition.meta.json"]

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
