"""Runner surface: configs, exit codes, catalog, determinism."""

import json
import subprocess
import sys

import pytest

from shearlab.cli import main
from shearlab.config import ConfigError, load_config


def write_config(path, scenario, out, params=None, sweep=None):
    lines = ["[run]", f"scenario = {scenario}", f"output = {out}",
             "seed = 7"]
    if params:
        lines.append("[params]")
        lines += [f"{k} = {v}" for k, v in params.items()]
    if sweep:
        lines.append("[sweep]")
        lines += [f"{k} = {' '.join(str(x) for x in v)}"
                  for k, v in sweep.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


SMALL_BPROFILE = {"k_max": 3, "n_eta": 4, "eta_max": 6}


class TestConfig:
    def test_load_and_override(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.ini", "bprofile",
                                tmp_path / "out", SMALL_BPROFILE)
        cfg = load_config(cfg_path)
        assert cfg.scenario == "bprofile"
        assert cfg.params["k_max"] == 3
        cfg2 = cfg.with_overrides(["k_max=5", "output=elsewhere"])
        assert cfg2.params["k_max"] == 5
        assert cfg2.output == "elsewhere"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_needs_run_section(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[params]\nx = 1\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_bad_override(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.ini", "bprofile",
                                tmp_path / "out")
        cfg = load_config(cfg_path)
        with pytest.raises(ConfigError):
            cfg.with_overrides(["oops"])


class TestExitCodes:
    def test_pass_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", "bprofile", tmp_path / "out",
                           SMALL_BPROFILE)
        assert main(["run", str(cfg)]) == 0
        assert "[PASS]" in capsys.readouterr().out
        assert (tmp_path / "out" / "summary.json").exists()

    def test_unknown_scenario_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "not-a-thing",
                           tmp_path / "out")
        assert main(["run", str(cfg)]) == 2

    def test_unparseable_config_exit_2(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[run\nscenario=")
        assert main(["run", str(p)]) == 2

    def test_hypothesis_violation_exit_3(self, tmp_path):
        # forcing fraction far above the contraction smallness bound
        cfg = write_config(tmp_path / "c.ini", "ns-fixedpoint",
                           tmp_path / "out",
                           {"nx": 16, "ny": 64, "f_fraction": 100.0})
        assert main(["run", str(cfg)]) == 3
        err = json.loads((tmp_path / "out" / "error.json").read_text())
        assert err["error_type"] == "hypothesis"
        assert "nu^2/40" in err["message"]

    def test_outputs_stay_in_output_dir(self, tmp_path, monkeypatch):
        out = tmp_path / "only-here"
        cfg = write_config(tmp_path / "c.ini", "bprofile", out,
                           SMALL_BPROFILE)
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert main(["run", str(cfg)]) == 0
        assert list(workdir.iterdir()) == []


class TestCatalog:
    def test_eleven_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert len([ln for ln in out.splitlines() if ln.strip()]) == 11

    def test_json_catalog(self, capsys):
        assert main(["list-scenarios", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        names = {e["name"] for e in entries}
        assert names == {
            "couette-resonant", "couette-stationary", "consistency",
            "shear-linear", "shear-consistency", "viscous-resonant",
            "viscous-stationary", "bprofile", "ns-fixedpoint", "ns-decay",
            "ns-resonant-split"}
        assert all(e["claim"] for e in entries)


class TestDeterminism:
    def test_identical_reruns_byte_identical(self, tmp_path):
        for name in ("r1", "r2"):
            cfg = write_config(tmp_path / f"{name}.ini", "bprofile",
                               tmp_path / name, SMALL_BPROFILE)
            assert main(["run", str(cfg)]) == 0
        files1 = sorted((tmp_path / "r1").iterdir())
        files2 = sorted((tmp_path / "r2").iterdir())
        assert [f.name for f in files1] == [f.name for f in files2]
        for f1, f2 in zip(files1, files2):
            assert f1.read_bytes() == f2.read_bytes()


def test_summary_checks_are_json_booleans(tmp_path):
    cfg = write_config(tmp_path / "c.ini", "bprofile", tmp_path / "out",
                       SMALL_BPROFILE)
    assert main(["run", str(cfg)]) == 0
    text = (tmp_path / "out" / "summary.json").read_text()
    summary = json.loads(text)
    assert summary["ok"] is True
    assert summary["checks"]
    assert all(v is True for v in summary["checks"].values())
    assert '"ok": true' in text


class TestSweep:
    def test_sweep_fans_out(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "bprofile", tmp_path / "out",
                           {"n_eta": 4, "eta_max": 6},
                           sweep={"k_max": [2, 3]})
        exits = {}
        for jobs in (1, 2):                 # serial loop and process pool
            out = tmp_path / f"out-{jobs}"
            assert main(["run", str(cfg), "--output", str(out),
                         "--jobs", str(jobs)]) == 0
            assert (out / "k_max-2" / "summary.json").exists()
            assert (out / "k_max-3" / "summary.json").exists()
            sweep = json.loads((out / "sweep.json").read_text())
            exits[jobs] = [run["exit"] for run in sweep["runs"]]
        assert exits[1] == exits[2] == [0, 0]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "shearlab.cli", "list-scenarios"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "bprofile" in proc.stdout
