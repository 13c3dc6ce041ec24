"""Command-line driver: config parsing, subcommands, artifacts, exit codes."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import colombeau
from colombeau import cli
from colombeau.asymptotics import EpsGrid
from colombeau.cli import DEFAULT_CONFIG, load_config, main
from colombeau.errors import ConfigError, UnknownNet


def read_verdicts(out_dir):
    with open(Path(out_dir) / "verdicts.csv") as fh:
        return list(csv.DictReader(fh))


class TestConfig:
    def test_default_config_parses(self):
        cfg = load_config(None)
        assert cfg.grid.values[0] == 0.25
        assert cfg.grid.values[-1] == 2.0**-12
        assert cfg.m_max == 8
        assert cfg.assoc_tol == 1e-3
        assert "pole" in cfg.nets and "spike" in cfg.nets

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text(
            "[grid]\nkind = geometric\neps_max = 0.5\neps_min = 0.001\npoints = 9\n"
            "[tolerances]\nassoc_tol = 5e-4\n"
            "[net:probe]\nexpr = eps * sin(x)\n"
        )
        cfg = load_config(str(p))
        assert len(cfg.grid) == 9
        assert cfg.grid.values[0] == 0.5
        assert cfg.assoc_tol == 5e-4
        net = cfg.scalar_net("probe")
        x = np.array([[0.3]])
        assert np.isclose(net.at(0.25)(x)[0, 0], 0.25 * np.sin(0.3))

    def test_flag_overrides_build_geometric_grid(self):
        cfg = load_config(
            None, {"eps_min": 0.001, "eps_max": 0.5, "grid_points": 7}
        )
        assert len(cfg.grid) == 7
        assert np.isclose(cfg.grid.values[0], 0.5)
        assert np.isclose(cfg.grid.values[-1], 0.001)

    def test_no_grid_flag_keeps_the_config_grid(self, tmp_path, monkeypatch):
        # main passes every grid flag, None when not given; none is given
        # here, so the command must run on the config's own grid, bit for bit
        seen = []
        monkeypatch.setitem(
            cli._COMMANDS, "classify", lambda cfg, out: seen.append(cfg.grid) or []
        )
        assert main(["classify", "--out", str(tmp_path)]) == 0
        want = load_config(None).grid.values
        assert [v.hex() for v in seen[0].values] == [v.hex() for v in want]

    def test_nets_of_one_config_share_its_atlas(self):
        cfg = load_config(None)
        assert cfg.map_net("sine").target is cfg.map_net("linear").target
        assert cfg.map_net("sine").source is cfg.atlas

    def test_net_needs_expr_or_kind(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[net:both]\nexpr = x\nkind = delta\n")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_expression_rejects_unknown_variables(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[net:other]\nexpr = y + eps\n[classify]\nnets = other\n")
        cfg = load_config(str(p))
        with pytest.raises(ConfigError):
            cfg.scalar_net("other")

    def test_unknown_net_reference(self):
        cfg = load_config(None)
        with pytest.raises(UnknownNet):
            cfg.scalar_net("ghost")


class TestSubcommands:
    def test_classify_default_catalog(self, tmp_path, capsys):
        assert main(["classify", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "classify pole: moderate(3) [pass]" in out
        assert "classify wild: neither [pass]" in out
        rows = read_verdicts(tmp_path)
        by_subject = {r["subject"]: r for r in rows}
        assert by_subject["square"]["verdict"] == "negligible(2)"
        assert by_subject["flat"]["status"] == "pass"
        assert (tmp_path / "fit_pole.csv").exists()
        with open(tmp_path / "fit_pole.csv") as fh:
            assert fh.readline().strip() == "eps,value,fit"

    def test_equiv_verdict_text(self, tmp_path, capsys):
        assert main(["equiv", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "not equivalent; 0-associated: true" in out
        assert "equiv sine:sine_tail: equivalent" in out
        assert (tmp_path / "verdicts.csv").read_text() == (
            "command,subject,verdict,expected,status,detail\n"
            "equiv,linear:quadratic,not equivalent; 0-associated: true,"
            "not-equivalent,pass,routes False/False/False\n"
            "equiv,sine:sine_tail,equivalent; 0-associated: true,"
            "equivalent,pass,routes True/True/True\n"
        )

    def test_vb_and_hybrid_equiv(self, tmp_path, capsys):
        assert main(["vb-equiv", "--out", str(tmp_path / "vb")]) == 0
        assert main(["hybrid-equiv", "--out", str(tmp_path / "hybrid")]) == 0
        out = capsys.readouterr().out
        assert "vb-equiv gain:gain_scaled: not equivalent [pass]" in out
        assert "hybrid-equiv sine:sine_tail: equivalent [pass]" in out
        header = "command,subject,verdict,expected,status,detail\n"
        assert (tmp_path / "vb" / "verdicts.csv").read_text() == header + (
            "vb-equiv,gain:gain_scaled,not equivalent,not-equivalent,pass,"
            '"chart route False, bank route False"\n'
            "vb-equiv,sine:sine_tail,equivalent,equivalent,pass,"
            '"chart route True, bank route True"\n'
        )
        assert (tmp_path / "hybrid" / "verdicts.csv").read_text() == header + (
            "hybrid-equiv,sine:sine_tail,equivalent,equivalent,pass,"
            '"chart route True, bank route True"\n'
            "hybrid-equiv,linear:quadratic,not equivalent,not-equivalent,pass,"
            '"chart route False, bank route False"\n'
        )

    def test_pointvals(self, tmp_path, capsys):
        assert main(["pointvals", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "pointvals sine:sine_tail: agree at all points [pass]" in out
        assert "pointvals linear:quadratic: separated [pass]" in out

    def test_associate_artifacts(self, tmp_path, capsys):
        assert main(["associate", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "associate quadratic: associated to 0 [pass]" in out
        assert "shadow found" in out
        with open(tmp_path / "shadow_spike.csv") as fh:
            header = fh.readline().strip()
        assert header.startswith("density_id,eps,pairing")

    def test_ppwave_quick_study(self, tmp_path, capsys):
        p = tmp_path / "pp.ini"
        p.write_text(
            "[ppwave]\nn_min = 6\nn_max = 11\nu_min = -0.5\nu_max = 0.5\n"
            "init = 0, 1, 0, 0, 0, 0\nmollifier = rho1\n"
        )
        assert main(
            ["ppwave", "--config", str(p), "--out", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "kink verified" in out
        report = (tmp_path / "ppwave_report.txt").read_text()
        assert "velocity_jump" in report
        with open(tmp_path / "ppwave_trajectories.csv") as fh:
            assert fh.readline().strip() == "eps,u,v,x,y,xdot"


class TestDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["classify", "--out", str(out), "--seed", "3"])
            main(["pointvals", "--out", str(out / "pv"), "--seed", "3"])
        for rel in ["verdicts.csv", "fit_pole.csv", "pv/verdicts.csv"]:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_pointvals_verdicts_do_not_depend_on_the_seed(self, tmp_path, capsys):
        # the seed draws the random generalized points; the verdicts on
        # them must not move
        outputs = []
        for seed in range(10):
            out = tmp_path / str(seed)
            assert main(["pointvals", "--out", str(out), "--seed", str(seed)]) == 0
            outputs.append((capsys.readouterr().out, (out / "verdicts.csv").read_bytes()))
        assert all(o == outputs[0] for o in outputs[1:])


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(Path(root).rglob("*"))
            if p.is_file()}


class TestModuleEntry:
    def test_python_dash_m_runs_the_command_as_main_does(self, tmp_path, capsys):
        src = str(Path(colombeau.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        run = subprocess.run(
            [sys.executable, "-m", "colombeau.cli", "classify", "--out", str(tmp_path / "m")],
            capture_output=True, text=True, env=env, timeout=300,
        )
        code = main(["classify", "--out", str(tmp_path / "main")])
        assert (run.returncode, run.stdout) == (code, capsys.readouterr().out)
        assert run.stdout and _tree(tmp_path / "m") == _tree(tmp_path / "main")


class TestExitCodes:
    def test_config_parse_error(self, tmp_path, capsys):
        p = tmp_path / "broken.ini"
        p.write_text("[grid\nkind = dyadic\n")
        assert main(["classify", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert "config-parse-error" in capsys.readouterr().err

    def test_code_execution_attempt_is_a_parse_error(self, tmp_path, capsys):
        p = tmp_path / "evil.ini"
        p.write_text("[net:evil]\nexpr = __import__(x)\n[classify]\nnets = evil\n")
        assert main(["classify", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert "config-parse-error" in capsys.readouterr().err

    def test_unknown_net_exit(self, tmp_path, capsys):
        p = tmp_path / "missing.ini"
        p.write_text("[classify]\nnets = ghost\n")
        assert main(["classify", "--config", str(p), "--out", str(tmp_path)]) == 3
        assert "unknown-net" in capsys.readouterr().err

    def test_check_failure_exit(self, tmp_path, capsys):
        p = tmp_path / "wrong.ini"
        p.write_text(
            "[net:lin]\nexpr = eps * x\nexpect = moderate(3)\n"
            "[classify]\nnets = lin\n"
        )
        assert main(["classify", "--config", str(p), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "check-failure: classify lin" in err

    def test_negative_association_order_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "negative.ini"
        p.write_text(
            "[net:a]\nexpr = x\n[net:b]\nexpr = x + eps * x\n"
            "[associate]\nk = -1\npairs =\n    a : b -> associated\n"
        )
        assert main(["associate", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert "[associate] k must be >= 0, got -1" in capsys.readouterr().err

    def test_grid_too_short_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "short.ini"
        p.write_text("[grid]\nkind = geometric\neps_max = 0.5\neps_min = 0.1\npoints = 3\n")
        assert main(["classify", "--config", str(p), "--out", str(tmp_path)]) == 2


def test_default_config_text_is_valid():
    cp_nets = [
        line.split(":", 1)[1].rstrip("]").strip()
        for line in DEFAULT_CONFIG.splitlines()
        if line.startswith("[net:")
    ]
    cfg = load_config(None)
    assert set(cp_nets) == set(cfg.nets)
    grid = cfg.grid
    assert isinstance(grid, EpsGrid)
