"""Command-line surface: flags, file formats, exit codes."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import entstruct
import entstruct.cli
from entstruct.cli import main
from entstruct.noise import generalized_ghz_thresholds, gme_noise_threshold
from entstruct.tomo import MeasurementRecord, MeasurementSetting, save_counts


def run(*argv):
    return main([str(a) for a in argv])


def simulate(tmp_path, *extra, name="counts.json", seed=11, shots=100000):
    out = tmp_path / name
    code = run("simulate", *extra, "--shots", shots, "--seed", seed,
               "--out", out)
    assert code == 0
    return out


class TestSimulate:
    def test_geometry_writes_four_records(self, tmp_path, capsys):
        out = simulate(tmp_path, "--geometry", "UUD", shots=2000)
        doc = json.loads(out.read_text())
        assert doc["n"] == 8
        assert len(doc["records"]) == 4
        labels = {tuple(set(r["setting"])) for r in doc["records"]}
        assert labels == {("Z",), ("X",), ("AMIX",), ("APLUS",)}
        assert all(sum(r["counts"].values()) == 2000 for r in doc["records"])
        assert "wrote" in capsys.readouterr().out

    def test_seeded_runs_identical(self, tmp_path):
        a = simulate(tmp_path, "--structure", "4+4", name="a.json", shots=1000)
        b = simulate(tmp_path, "--structure", "4+4", name="b.json", shots=1000)
        assert a.read_text() == b.read_text()
        c = simulate(tmp_path, "--structure", "4+4", name="c.json",
                     shots=1000, seed=12)
        assert a.read_text() != c.read_text()

    def test_seed_entropy_reported(self, tmp_path, capsys):
        out = tmp_path / "counts.json"
        assert run("simulate", "--structure", "2", "--shots", 100,
                   "--out", out) == 0
        assert "seed: " in capsys.readouterr().err

    def test_structure_and_geometry_conflict(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("simulate", "--structure", "4+4", "--geometry", "UUU",
                "--out", tmp_path / "x.json")
        assert exc.value.code == 2

    def test_source_required(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("simulate", "--out", tmp_path / "x.json")
        assert exc.value.code == 2

    def test_noise_families_exclusive(self, tmp_path):
        code = run("simulate", "--structure", "8", "--noise-p", "0.1",
                   "--gamma-w", "0.1", "--seed", 1,
                   "--out", tmp_path / "x.json")
        assert code == 2

    def test_gamma_noise_rejects_custom_angles(self, tmp_path):
        code = run("simulate", "--structure", "8", "--gamma-w", "0.1",
                   "--theta", "0.5", "--seed", 1, "--out", tmp_path / "x.json")
        assert code == 2

    def test_gamma_and_visibility_noise_accepted(self, tmp_path):
        simulate(tmp_path, "--structure", "8", "--gamma-w", "0.2",
                 "--gamma-d", "0.17", name="g.json", shots=500)
        simulate(tmp_path, "--structure", "4+4", "--v1", "0.95",
                 "--v2", "0.9", name="v.json", shots=500)


@pytest.fixture(scope="module")
def counts_six_two(tmp_path_factory):
    return simulate(tmp_path_factory.mktemp("six_two"), "--structure", "6+2", seed=7)


class TestEval:
    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_gamma_rejected(self, counts_six_two, tmp_path, capsys, gamma):
        out = tmp_path / "eval.json"
        assert run("eval", "--counts", counts_six_two, "--gamma", gamma,
                   "--out", out) == 2
        assert "gamma must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_ideal_7_plus_1(self, tmp_path):
        counts = simulate(tmp_path, "--structure", "7+1", shots=200000)
        out = tmp_path / "eval.json"
        csv_path = tmp_path / "est.csv"
        assert run("eval", "--counts", counts, "--alpha", 4 / 3,
                   "--csv", csv_path, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "entstruct/1"
        assert doc["kind"] == "evaluation"
        sep = doc["witnesses"]["separability"]
        assert sep["value"] == pytest.approx(5 / 3, abs=0.01)
        assert sep["bound_biseparable"] == pytest.approx(5 / 3, abs=1e-12)
        assert doc["witnesses"]["depth"]["value"] == pytest.approx(2.0106, abs=0.01)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "subset,observable,value,sigma"
        assert lines[1].startswith("1+2+3+4+5+6+7+8,MZ,")

    def test_noise_fit_inverts_gamma_model(self, tmp_path):
        counts = simulate(tmp_path, "--structure", "8", "--gamma-w", "0.2",
                          "--gamma-d", "0.17", shots=200000)
        out = tmp_path / "eval.json"
        assert run("eval", "--counts", counts, "--out", out) == 0
        fit = json.loads(out.read_text())["noise_fit"]
        assert fit["valid"]
        assert fit["gamma_w"] == pytest.approx(0.2, abs=0.02)
        assert fit["gamma_d"] == pytest.approx(0.17, abs=0.02)

    def test_closed_forms_need_no_party_cap(self, tmp_path):
        # 16 parties is past the dense-state cap, which no closed form needs
        n = 16
        counts = tmp_path / "c16.json"
        save_counts([
            MeasurementRecord(MeasurementSetting.uniform("Z", n),
                              {"0" * n: 480, "1" * n: 470, "0" * (n - 1) + "1": 50}),
            MeasurementRecord(MeasurementSetting.uniform("X", n), {"0" * n: 1000}),
        ], counts)
        out = tmp_path / "eval.json"
        assert run("eval", "--counts", counts, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == 16
        assert doc["noise_fit"]["gamma_w"] == pytest.approx(0.05 * 2**15 / (2**15 - 1))

    def test_one_party_is_a_usage_error(self, tmp_path, capsys):
        counts = tmp_path / "c1.json"
        save_counts([
            MeasurementRecord(MeasurementSetting.uniform("Z", 1), {"0": 60, "1": 40}),
            MeasurementRecord(MeasurementSetting.uniform("X", 1), {"0": 100}),
        ], counts)
        assert run("eval", "--counts", counts) == 2
        assert "need 2..511 parties, got 1" in capsys.readouterr().err

    def test_csv_dash_prints_the_rows(self, tmp_path, capsys):
        counts = tmp_path / "bell.json"
        save_counts([
            MeasurementRecord(MeasurementSetting.uniform("Z", 2), {"00": 60, "11": 20,
                                                                   "01": 20}),
            MeasurementRecord(MeasurementSetting.uniform("X", 2), {"00": 50}),
        ], counts)
        out = tmp_path / "eval.json"
        assert run("eval", "--counts", counts, "--csv", "-", "--out", out) == 0
        assert capsys.readouterr().out.splitlines() == [
            "subset,observable,value,sigma", "1+2,MZ,0.8,0.04", "1+2,MX,1,0"]
        assert json.loads(out.read_text())["expectations"]["MZ"]["value"] == 0.8
        assert not (tmp_path / "-").exists()

    def test_missing_counts_file(self, tmp_path, capsys):
        assert run("eval", "--counts", tmp_path / "absent.json") == 4
        assert "i/o error" in capsys.readouterr().err

    def test_malformed_counts_file(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("not json")
        assert run("eval", "--counts", path) == 4
        assert "bad input file" in capsys.readouterr().err


class TestInfer:
    @pytest.mark.parametrize("conf", ["-1", "nan", "inf"])
    def test_confidence_must_be_finite_and_non_negative(self, counts_six_two,
                                                        tmp_path, capsys, conf):
        out = tmp_path / "report.json"
        assert run("infer", "--counts", counts_six_two, f"--confidence={conf}",
                   "--out", out) == 2
        assert "confidence_sigmas" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_confidence_is_legal(self, counts_six_two, tmp_path):
        out = tmp_path / "report.json"
        assert run("infer", "--counts", counts_six_two, "--confidence=0",
                   "--out", out) == 0
        assert json.loads(out.read_text())["confidence_sigmas"] == 0.0

    def test_nan_gamma_grid_rejected(self, counts_six_two, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run("infer", "--counts", counts_six_two, "--gamma-grid", "nan",
                   "--out", out) == 2
        assert "gamma" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (("--gamma-grid", "2.5"), "outside the computed range"),
        (("--alpha", "2.5"), "scan_alpha"),
        (("--alpha", "0"), "scan_alpha"),
    ])
    def test_config_refused_on_gme_counts(self, tmp_path, capsys, flags, message):
        # GME data end the inference at step 1, before the gamma grid is
        # read; every field is checked all the same, before any file is read
        counts = simulate(tmp_path, "--structure", "8", seed=5, shots=20000)
        out = tmp_path / "report.json"
        assert run("infer", "--counts", counts, *flags, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("size", [1, 0, -3])
    def test_max_subset_size_below_two_rejected(self, tmp_path, capsys, size):
        counts = simulate(tmp_path, "--structure", "2+2+4", seed=3, shots=20000)
        assert run("infer", "--counts", counts, "--max-subset-size", size) == 2
        assert "max_subset_size" in capsys.readouterr().err

    def test_geometry_roundtrip(self, tmp_path, capsys):
        counts = simulate(tmp_path, "--geometry", "UUD", seed=7)
        out = tmp_path / "report.json"
        csv_path = tmp_path / "evidence.csv"
        assert run("infer", "--counts", counts, "--evidence-csv", csv_path,
                   "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "structure_report"
        assert doc["proposed_partition"] == [[1, 2, 3, 4, 7, 8], [5, 6]]
        assert doc["consistency_findings"] == []
        assert capsys.readouterr().err == ""
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "subset,witness,value,sigma,bound,verdict"
        assert len(lines) > 1

    def test_evidence_csv_dash_prints_the_rows(self, counts_six_two, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run("infer", "--counts", counts_six_two, "--evidence-csv", "-",
                   "--out", out) == 0
        lines = capsys.readouterr().out.splitlines()
        doc = json.loads(out.read_text())
        assert lines[0] == "subset,witness,value,sigma,bound,verdict"
        assert len(lines) == 1 + len(doc["evidence"])
        assert lines[1].startswith("1+2+3+4+5+6+7+8,sep(alpha=2),")
        assert not (tmp_path / "-").exists()

    def test_zero_shot_record_exits_4(self, tmp_path, capsys):
        counts = tmp_path / "empty.json"
        counts.write_text(json.dumps({"n": 2, "records": [
            {"setting": ["Z", "Z"], "counts": {"00": 5}},
            {"setting": ["X", "X"], "counts": {"00": 0}}]}))
        assert run("infer", "--counts", counts) == 4
        assert f"{counts}: record 1: counts total 0 shots" in capsys.readouterr().err

    def test_expectation_table_input(self, tmp_path):
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"n": 8, "expectations": [
            {"observable": "MZ", "parties": list(range(1, 9)), "value": 0.800,
             "sigma": 0.006},
            {"observable": "MX", "parties": list(range(1, 9)), "value": 0.625,
             "sigma": 0.016},
        ]}))
        out = tmp_path / "report.json"
        assert run("infer", "--expectations", table, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["gme"] is True
        assert doc["proposed_partition"] == [list(range(1, 9))]

    def test_small_system_reports_skipped_depth_step(self, tmp_path):
        counts = simulate(tmp_path, "--structure", "4+2", seed=5)
        out = tmp_path / "report.json"
        assert run("infer", "--counts", counts, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "entstruct/1"
        assert doc["depth_lower"] is None
        assert len(doc["skipped"]) == 1
        assert doc["skipped"][0].startswith("depth step")

    def test_counts_xor_expectations(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("infer")
        assert exc.value.code == 2

    @pytest.mark.parametrize("entries", [
        # json.dumps writes the non-standard literals NaN and Infinity
        [{"observable": "MZ", "parties": [1, 2], "value": float("nan")}],
        [{"observable": "MZ", "parties": [1, 2], "value": 0.5,
          "sigma": float("inf")}],
        [{"observable": "MZ", "parties": [1, 2], "value": 0.0},
         {"observable": "MZ", "parties": [2, 1], "value": 1.0}],
    ], ids=["nan-value", "infinite-sigma", "duplicate"])
    def test_bad_table_exits_4(self, tmp_path, capsys, entries):
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"n": 2, "expectations": entries}))
        assert run("infer", "--expectations", table) == 4
        assert "bad input file" in capsys.readouterr().err

    def test_cli_imports_no_private_names(self):
        tree = ast.parse(Path(entstruct.cli.__file__).read_text())
        imported = [alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    for alias in node.names]
        assert not [name for name in imported
                    if name.startswith("_") and not name.endswith("__")]


class TestBounds:
    def test_stored_table_is_default(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert run("bounds", "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,gamma,beta,source,converged"
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 7
        byk = {int(r[0]): r for r in rows}
        assert byk[1][2] == "0.836500"
        assert byk[4][2] == "1.385600"
        assert all(r[3] == "tabulated" for r in rows)

    def test_interpolated_cells_marked_computed(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert run("bounds", "--k-range", "4", "--gamma-grid", "1.6",
                   "--out", out) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[3] == "computed"
        assert float(row[2]) == pytest.approx(1.1949, abs=1e-3)

    @pytest.mark.parametrize("grid", ["nan:2:0.1", "0.1:inf:0.1", "0.1:2:nan"])
    def test_non_finite_grid_bounds_rejected(self, capsys, grid):
        assert run("bounds", "--k-range", "3", "--gamma-grid", grid) == 2
        assert "finite" in capsys.readouterr().err

    def test_recompute_matches_stored(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert run("bounds", "--recompute", "--k-range", "1",
                   "--gamma-grid", "2.0", "--restarts", 20, "--seed", 3,
                   "--out", out) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[3] == "seesaw"
        assert row[4] == "true"
        assert float(row[2]) == pytest.approx(0.8365, abs=1e-3)


class TestThresholds:
    def test_gme_row(self, capsys):
        assert run("thresholds", "--family", "gme", "--n", 8) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "family,n,m,theta,phi,threshold"
        assert lines[1].split(",")[-1] == "0.335079"

    def test_intactness_sweep(self, capsys):
        assert run("thresholds", "--family", "intactness", "--n", 8) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = {int(r.split(",")[2]): r.split(",")[-1] for r in lines[1:]}
        assert set(rows) == set(range(2, 9))
        assert rows[5] == "0.485830"
        assert rows[8] == "0.500000"
        assert rows[2] == f"{gme_noise_threshold(8, 2.0):.6f}"

    def test_custom_angles(self, capsys):
        assert run("thresholds", "--family", "intactness", "--n", 4,
                   "--m", 3, "--theta", 0.55, "--phi", 0.3) == 0
        line = capsys.readouterr().out.splitlines()[1]
        want = generalized_ghz_thresholds(4, 0.55, 0.3, 3)
        assert line.split(",")[-1] == f"{want:.6f}"

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_parties_rejected(self, n, capsys):
        assert run("thresholds", "--family", "intactness", "--n", n) == 2
        assert capsys.readouterr().out == ""

    def test_sixteen_parties(self, capsys):
        assert run("thresholds", "--family", "gme", "--n", 16) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[-1] == "0.333340"

    def test_custom_angles_need_alpha_two(self, capsys):
        assert run("thresholds", "--family", "gme", "--n", 4,
                   "--theta", 0.5, "--alpha", 1.5) == 2
        assert "alpha=2" in capsys.readouterr().err


class TestVisibility:
    def test_separability_target_beyond_party_count(self, capsys):
        assert run("visibility", "--structure", "2+2", "--alpha", 1.2,
                   "--target", 9, "--v1-grid", "1.0") == 2
        assert "2..4" in capsys.readouterr().err

    def test_product_sits_at_bound(self, capsys):
        assert run("visibility", "--structure", "4+4",
                   "--v1-grid", "1.0") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "v1,v2,margin"
        assert lines[1] == "1,1,0"

    def test_twelve_parties_in_three_blocks(self, capsys):
        # three GHZ4 blocks: MZ = 2 (1/2)^3 = 1/4, so W = 2/4 + 1 = 1.5 vs bound 2
        assert run("visibility", "--structure", "4+4+4",
                   "--v1-grid", "1.0") == 0
        assert capsys.readouterr().out.splitlines()[1] == "1,1,-0.5"

    def test_sixteen_parties_in_four_blocks(self, capsys):
        # four GHZ4 blocks: MZ = 2 (1/2)^4 = 1/8, so W = 2/8 + 1 = 1.25 vs bound 2
        assert run("visibility", "--structure", "4+4+4+4",
                   "--v1-grid", "1.0") == 0
        assert capsys.readouterr().out.splitlines()[1] == "1,1,-0.75"

    def test_single_block_margin(self, capsys):
        assert run("visibility", "--structure", "8",
                   "--v1-grid", "0.967", "--v2-grid", "0.867") == 0
        margin = float(capsys.readouterr().out.splitlines()[1].split(",")[2])
        assert margin == pytest.approx(0.287, abs=2e-3)

    def test_depth_family_needs_target(self, capsys):
        assert run("visibility", "--structure", "8", "--family", "depth",
                   "--v1-grid", "1.0") == 2
        assert "--target" in capsys.readouterr().err

    def test_depth_family_margin(self, capsys):
        assert run("visibility", "--structure", "8", "--family", "depth",
                   "--target", 7, "--v1-grid", "1.0") == 0
        margin = float(capsys.readouterr().out.splitlines()[1].split(",")[2])
        # ideal GHZ8 at gamma=2 sits above the 7-producible bound
        assert margin == pytest.approx(2.229838 - 2.0578, abs=1e-3)

    def test_depth_family_needs_eight_parties(self, capsys):
        assert run("visibility", "--structure", "4+2", "--family", "depth",
                   "--target", 3, "--v1-grid", "1.0") == 2
        assert "8 parties" in capsys.readouterr().err
        assert run("visibility", "--structure", "4+4", "--family", "depth",
                   "--target", 3, "--v1-grid", "1.0") == 0


def load_pyproject():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    path = Path(__file__).resolve().parent.parent / "pyproject.toml"
    return tomllib.loads(path.read_text())


def child_env():
    """Environment for a child interpreter that imports the same
    `entstruct` as this process: its package root leads PYTHONPATH,
    whether that is `src/` or site-packages."""
    root = str(Path(entstruct.__file__).resolve().parent.parent)
    path = filter(None, [root, os.environ.get("PYTHONPATH")])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


class TestEntryPoint:
    def test_console_script_version(self):
        # Runs the [project.scripts] target the way the generated wrapper
        # does, so no install or script on PATH is needed.
        project = load_pyproject()["project"]
        assert "entstruct" in project["scripts"]
        module, attr = project["scripts"]["entstruct"].split(":")
        code = ("import importlib, sys; "
                "sys.argv = ['entstruct', '--version']; "
                f"sys.exit(getattr(importlib.import_module({module!r}), "
                f"{attr!r})())")
        res = subprocess.run([sys.executable, "-c", code], env=child_env(),
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == f"entstruct {project['version']}"

    def test_module_runner(self):
        res = subprocess.run([sys.executable, "-m", "entstruct.cli", "--help"],
                             env=child_env(), capture_output=True, text=True)
        assert res.returncode == 0
        assert "simulate" in res.stdout
