"""Scenario runner: config parsing, artifacts, goldens, determinism."""

import configparser
import json
from pathlib import Path

import numpy as np
import pytest

from nullform import cli
from nullform.cli import (ScenarioConfig, _number, compare_golden,
                          config_hash, load_scenario, main, run_scenario)
from nullform.errors import ConfigError
from nullform.gridio import read_bundle, write_bundle

FORWARD_CFG = """\
[scenario]
name = fwd-tiny
pipeline = forward
dimension = 2

[potential]
key = radial_bump

[profiles]
phi = ramp:flat=1.5,taper=0.5

[probe]
v_sign = 1
v_theta = 0, 1
w_sign = -1
w_theta = 1, 0

[forward]
offsets = -0.8:0.8:9
angles = 4
"""

RECOVER_CFG = """\
[scenario]
name = rec-tiny
pipeline = recover
dimension = 2

[potential]
key = radial_bump

[profiles]
phi = ramp:flat=1.5,taper=0.5
chi = bump:r=0.3

[time]
tprime = 1.5

[recover]
provider = ansatz
h = 1/16
offsets = -0.8:0.8:25
angles = 90
"""


def _write(tmp_path, text, name="scn.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


# ----------------------------------------------------------------------
# config parsing


def test_number_accepts_fractions():
    assert _number("1/16") == pytest.approx(0.0625)
    assert _number(" 2.5 ") == 2.5


def test_typed_getters_and_field_errors():
    cfg = ScenarioConfig({("grid", "h_list"): "1/8, 1/16",
                          ("grid", "xlim"): "-4:4",
                          ("grid", "dx"): "bogus"})
    assert cfg.floats("grid", "h_list") == (0.125, 0.0625)
    assert cfg.intervals("grid", "xlim") == ((-4.0, 4.0),)
    with pytest.raises(ConfigError, match=r"\[grid\] dx"):
        cfg.float("grid", "dx")
    with pytest.raises(ConfigError, match=r"\[time\] t0"):
        cfg.float("time", "t0")
    assert cfg.float("time", "t0", -2.0) == -2.0


def test_angles_spec():
    cfg = ScenarioConfig({("s", "a"): "4", ("s", "b"): "0:1:5"})
    a = cfg.angles("s", "a")
    assert np.allclose(a, np.linspace(0, np.pi, 4, endpoint=False))
    b = cfg.angles("s", "b")
    assert np.allclose(b, np.linspace(0, 1, 5, endpoint=False))


def test_config_hash_tracks_content(tmp_path):
    p1 = _write(tmp_path, FORWARD_CFG, "a.cfg")
    p2 = _write(tmp_path, FORWARD_CFG.replace("angles = 4", "angles = 5"),
                "b.cfg")
    _, t1 = load_scenario(p1)
    _, t2 = load_scenario(p2)
    assert config_hash(t1) != config_hash(t2)
    # whitespace and section order do not change the hash
    p3 = _write(tmp_path, FORWARD_CFG.replace("= 4", "=  4"), "c.cfg")
    _, t3 = load_scenario(p3)
    assert config_hash(t1) == config_hash(t3)


def test_malformed_config_exits_2(tmp_path, capsys):
    p = _write(tmp_path, "[scenario]\nname = x\n")  # no pipeline
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
    assert "pipeline" in capsys.readouterr().err


def test_unknown_pipeline_names_field(tmp_path, capsys):
    p = _write(tmp_path, FORWARD_CFG.replace("pipeline = forward",
                                             "pipeline = teleport"))
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "[scenario] pipeline" in err and "teleport" in err


@pytest.mark.parametrize("pipeline, wrong", [
    ("ansatz", 2), ("residual", 2), ("picard", 2), ("energy", 2),
    ("recover", 1)])
def test_wrong_pipeline_dimension_exits_2(tmp_path, capsys, pipeline,
                                          wrong):
    p = _write(tmp_path, f"[scenario]\nname = dim\npipeline = {pipeline}\n"
                         f"dimension = {wrong}\n")
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
    assert "[scenario] dimension" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before any output


def test_not_ini_at_all_exits_2(tmp_path, capsys):
    p = _write(tmp_path, "just some prose, not a config\n")
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
    assert "malformed" in capsys.readouterr().err


# ----------------------------------------------------------------------
# run: artifacts, idempotence, determinism


def test_run_forward_writes_artifacts(tmp_path):
    p = _write(tmp_path, FORWARD_CFG)
    outdir = run_scenario(p, out_root=tmp_path / "out")
    assert (outdir / "summary.json").exists()
    assert (outdir / "sinogram.csv").exists()
    assert (outdir / "config.cfg").exists()
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["pipeline"] == "forward"
    assert summary["config_hash"] in outdir.name
    assert summary["results"]["sinogram_max"] > 0


def test_rerun_is_idempotent(tmp_path, capsys):
    p = _write(tmp_path, FORWARD_CFG)
    outdir = run_scenario(p, out_root=tmp_path / "out")
    stamp = (outdir / "summary.json").stat().st_mtime_ns
    again = run_scenario(p, out_root=tmp_path / "out")
    assert again == outdir
    assert (outdir / "summary.json").stat().st_mtime_ns == stamp
    assert "cached" in capsys.readouterr().out


def test_summary_byte_identical_across_runs(tmp_path):
    p = _write(tmp_path, FORWARD_CFG)
    d1 = run_scenario(p, out_root=tmp_path / "out1")
    d2 = run_scenario(p, out_root=tmp_path / "out2")
    b1 = (d1 / "summary.json").read_bytes()
    b2 = (d2 / "summary.json").read_bytes()
    assert b1 == b2


def test_nullform_out_env(tmp_path, monkeypatch):
    monkeypatch.setenv("NULLFORM_OUT", str(tmp_path / "envout"))
    p = _write(tmp_path, FORWARD_CFG)
    outdir = run_scenario(p)
    assert outdir.parent == tmp_path / "envout"


def test_recover_summary_byte_identical_across_runs(tmp_path):
    p = _write(tmp_path, RECOVER_CFG)
    d1 = run_scenario(p, out_root=tmp_path / "out1")
    d2 = run_scenario(p, out_root=tmp_path / "out2")
    assert (d1 / "summary.json").read_bytes() \
        == (d2 / "summary.json").read_bytes()
    arrays, meta = read_bundle(d1 / "reconstruction.nfg")
    assert arrays["values"].shape == (25, 25)
    assert (d1 / "reconstruction.pgm").read_text().startswith("P2")


def test_jobs_option_is_gone(tmp_path):
    # --jobs split a sweep over threads that, for a radial q, each
    # synthesized the same one-probe slice; a jobs other than 1 must not
    # be silently ignored
    p = _write(tmp_path, RECOVER_CFG)
    with pytest.raises(SystemExit) as exc:
        main(["run", str(p), "--out", str(tmp_path / "out"), "--jobs", "2"])
    assert exc.value.code == 2
    with pytest.raises(ValueError, match="jobs must be 1, got 2"):
        run_scenario(p, out_root=tmp_path / "lib", jobs=2)
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "lib").exists()


def test_recover_pgm_shows_x2_up(tmp_path):
    # offset_bump peaks at (x1, x2) = (0.35, 0.15): right of and above
    # the centre of the 25 x 25 preview
    cfg = RECOVER_CFG.replace("key = radial_bump", "key = offset_bump") \
        .replace("flat=1.5", "flat=2.5")
    d = run_scenario(_write(tmp_path, cfg), out_root=tmp_path / "out")
    tokens = (d / "reconstruction.pgm").read_text().split()
    assert tokens[:4] == ["P2", "25", "25", "255"]
    img = np.array(tokens[4:], dtype=int).reshape(25, 25)
    row, col = np.unravel_index(np.argmax(img), img.shape)
    assert row < 12 < col
    arrays, _ = read_bundle(d / "reconstruction.nfg")
    vals = arrays["values"]
    scaled = np.round((vals - vals.min()) * (255 / np.ptp(vals)))
    assert np.array_equal(img, scaled.T[::-1])


@pytest.mark.parametrize("field,value", [
    ("method", "lsqr"), ("reg", "nan"), ("reg", "inf"), ("reg", "-1e-8")])
def test_recover_rejects_bad_method_or_reg(tmp_path, capsys, monkeypatch,
                                           field, value):
    def no_synthesis(*args, **kwargs):
        raise AssertionError("probe synthesis ran before validation")

    monkeypatch.setattr("nullform.cli.ansatz_measurements", no_synthesis)
    p = _write(tmp_path, RECOVER_CFG + f"{field} = {value}\n")
    with pytest.raises(ConfigError, match=rf"\[recover\] {field}"):
        run_scenario(p, out_root=tmp_path / "lib")
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
    assert f"[recover] {field}" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("phi", "cos4:r=0"), ("phi", "ramp:taper=0"), ("phi", "ramp:flat=-1"),
    ("chi", "bump:r=0"), ("chi", "bump:r=-1"), ("chi", "bump:a=nan"),
    ("amplitude", "nan"), ("amplitude", "-inf")])
def test_bad_profile_or_amplitude_exits_2(tmp_path, capsys, monkeypatch,
                                          field, value):
    def no_synthesis(*args, **kwargs):
        raise AssertionError("probe synthesis ran before validation")

    monkeypatch.setattr("nullform.cli.ansatz_measurements", no_synthesis)
    old, section = {"phi": ("phi = ramp:flat=1.5,taper=0.5", "profiles"),
                    "chi": ("chi = bump:r=0.3", "profiles"),
                    "amplitude": ("key = radial_bump", "potential")}[field]
    new = f"{field} = {value}"
    if field == "amplitude":
        new = f"{old}\n{new}"
    p = _write(tmp_path, RECOVER_CFG.replace(old, new))
    with pytest.raises(ConfigError, match=rf"\[{section}\] {field}"):
        run_scenario(p, out_root=tmp_path / "lib")
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
    assert f"[{section}] {field}" in capsys.readouterr().err


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize("scenario,section,key,value", [
    ("energy_suite", "energy", "cases", "0"),
    ("energy_suite", "energy", "lams", "1, 0"),
    ("energy_suite", "grid", "dx", "0"),
    ("residual_n0", "grid", "dx", "0"),
    ("picard_lam8", "picard", "lam", "-8"),
    ("picard_lam8", "picard", "m", "-1"),
    ("recover_small", "recover", "h", "0"),
    ("recover_small", "recover", "h", "-1/32"),
    ("recover_small", "recover", "ppw", "0"),
    ("certify_catalog", "certify", "grid_points", "1"),
    ("certify_catalog", "certify", "n_profiles", "0")])
def test_nonpositive_size_exits_2(tmp_path, capsys, scenario, section, key,
                                  value):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(SCENARIOS / f"{scenario}.cfg")
    parser[section][key] = value
    p = tmp_path / "scn.cfg"
    with open(p, "w") as fh:
        parser.write(fh)
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"[{section}] {key}: must be >" in err
    assert not (tmp_path / "out").exists() or \
        not list((tmp_path / "out").rglob("summary.json"))


@pytest.mark.parametrize("scenario,section,key,value", [
    ("forward_bump2d", "forward", "angles", "0"),
    ("forward_bump2d", "forward", "angles", "0:1:0"),
    ("forward_bump2d", "forward", "offsets", "-0.8:0.8:0"),
    ("recover_small", "recover", "angles", "-1"),
    ("recover_small", "recover", "offsets", "-0.8:0.8:0"),
    ("recover_small", "recover", "offsets", "-0.8:0.8:1"),
    ("recover_small", "recover", "axes", "-0.8:0.8:1")])
def test_empty_sweep_range_exits_2(tmp_path, capsys, monkeypatch, scenario,
                                   section, key, value):
    # a recover range that cannot give a uniform grid is rejected before
    # any probe is synthesized
    def no_synthesis(*args, **kwargs):
        raise AssertionError("probe synthesis ran before validation")

    monkeypatch.setattr("nullform.cli.ansatz_measurements", no_synthesis)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(SCENARIOS / f"{scenario}.cfg")
    parser[section][key] = value
    p = tmp_path / "scn.cfg"
    with open(p, "w") as fh:
        parser.write(fh)
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
    assert f"[{section}] {key}: sample count must be >=" in \
        capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("offsets", "0.8:-0.8:33"),
                                       ("offsets", "0.5:0.5:33"),
                                       ("axes", "0.8:-0.8:33"),
                                       ("axes", "0.5:0.5:33")])
def test_recover_range_must_increase(tmp_path, capsys, monkeypatch, key,
                                     value):
    # a reversed range used to reconstruct nothing (error ~1.0, exit 0)
    # and a degenerate one to fail in the FFT; both exit 2 before any
    # probe is synthesized, with the ends as plain numbers, not as
    # np.float64(...)
    def no_synthesis(*args, **kwargs):
        raise AssertionError("probe synthesis ran before validation")

    monkeypatch.setattr("nullform.cli.ansatz_measurements", no_synthesis)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(SCENARIOS / "recover_small.cfg")
    parser["recover"]["offsets"] = "-0.8:0.8:33"
    parser["recover"][key] = value
    p = tmp_path / "scn.cfg"
    with open(p, "w") as fh:
        parser.write(fh)
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
    lo, hi = value.split(":")[:2]
    assert (f"[recover] {key}: range must increase, got {lo} to {hi}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("scenario", ["recover_small", "recover_fdtd_h64"])
def test_too_few_recovery_angles_exit_2_before_synthesis(
        tmp_path, capsys, monkeypatch, scenario):
    # the sweep needs FBP_MIN_ANGLES directions; the config check says so
    # before a probe is synthesized (an FDTD solve at h = 1/64 takes ~30 s)
    calls = []
    for name in ("ansatz_measurements", "fdtd_measurements"):
        monkeypatch.setattr(f"nullform.cli.{name}",
                            lambda *a, name=name, **k: calls.append(name))
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(SCENARIOS / f"{scenario}.cfg")
    parser["recover"]["angles"] = "8"
    p = tmp_path / "scn.cfg"
    with open(p, "w") as fh:
        parser.write(fh)
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "[recover] angles: sample count must be >= 90, got 8" in err
    assert calls == []


def _recover_variant(tmp_path, scenario, **edits):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(SCENARIOS / f"{scenario}.cfg")
    for key, value in edits.items():
        parser["recover"][key] = value
    p = tmp_path / "scn.cfg"
    with open(p, "w") as fh:
        parser.write(fh)
    return p


@pytest.mark.parametrize("scenario,key,value,message", [
    ("recover_small", "angles", "1:0:90", "the sweep must increase strictly"),
    ("recover_small", "angles", "0:0:90", "the sweep must increase strictly"),
    ("recover_small", "angles", "0:3.3:90", "fbp needs a sweep within"),
    ("recover_fdtd_h64", "angles", "0:3.3:180", "fbp needs a sweep within"),
    ("recover_small", "richardson", "true", "the key was removed"),
    ("recover_fdtd_h64", "richardson", "false", "the key was removed"),
    ("recover_small", "ppw", "8", "must be > 15, got 8"),
    ("recover_fdtd_h64", "ppw", "8", "must be > 15, got 8")],
    ids=["decreasing", "constant", "past-half-turn", "fdtd-past-half-turn",
         "richardson", "fdtd-richardson", "ppw", "fdtd-ppw"])
def test_bad_recover_config_exits_2_before_synthesis(
        tmp_path, capsys, monkeypatch, scenario, key, value, message):
    # the sweep and ppw used to be checked only after every probe was
    # synthesized (an FDTD solve at h = 1/64 takes ~25 s), by a message
    # that did not name the key; a config setting the removed two-h step
    # must not silently run the plain extraction
    calls = []
    for name in ("ansatz_measurements", "fdtd_measurements"):
        monkeypatch.setattr(f"nullform.cli.{name}",
                            lambda *a, name=name, **k: calls.append(name))
    p = _recover_variant(tmp_path, scenario, **{key: value})
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
    assert f"[recover] {key}: {message}" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("scenario,section,key,value,message", [
    ("energy_suite", "energy", "m_values", "0, 1.5",
     "must be integers >= 0, got (0.0, 1.5)"),
    ("energy_suite", "energy", "m_values", "-1",
     "must be integers >= 0, got (-1.0,)"),
    ("energy_suite", "grid", "xlim", "-4:4; -4:4",
     "expected 1 intervals, got 2")],
    ids=["m_values-fraction", "m_values-negative", "xlim"])
def test_bad_energy_config_exits_2_before_solving(
        tmp_path, capsys, monkeypatch, scenario, section, key, value,
        message):
    # m_values = 1.5 used to run at m = 1 and m_values = -1 to write C
    # from an empty H^-1 sum; a second xlim interval raised a bare
    # ValueError
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_semilinear ran before validation")

    monkeypatch.setattr("nullform.cli.solve_semilinear", no_solve)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(SCENARIOS / f"{scenario}.cfg")
    parser[section][key] = value
    p = tmp_path / "scn.cfg"
    with open(p, "w") as fh:
        parser.write(fh)
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
    assert f"[{section}] {key}: {message}" in capsys.readouterr().err


def test_rls_recovers_from_a_sweep_past_a_half_turn(tmp_path):
    # only fbp needs the sweep within one half-turn
    p = _recover_variant(tmp_path, "recover_small", method="rls",
                         angles="0:3.3:90")
    outdir = run_scenario(p, out_root=tmp_path / "out")
    results = json.loads((outdir / "summary.json").read_text())["results"]
    assert (results["method"], results["n_angles_used"]) == ("rls", 90)


# ----------------------------------------------------------------------
# compare


def test_compare_identical_passes(tmp_path):
    p = _write(tmp_path, FORWARD_CFG)
    d1 = run_scenario(p, out_root=tmp_path / "out1")
    d2 = run_scenario(p, out_root=tmp_path / "out2")
    assert compare_golden(d1, d2) == []


def test_compare_names_failing_quantity(tmp_path):
    p = _write(tmp_path, FORWARD_CFG)
    d1 = run_scenario(p, out_root=tmp_path / "out1")
    d2 = run_scenario(p, out_root=tmp_path / "out2")
    s = json.loads((d2 / "summary.json").read_text())
    s["results"]["sinogram_max"] *= 1.01
    (d2 / "summary.json").write_text(json.dumps(s))
    failures = compare_golden(d1, d2)
    assert failures and any("sinogram_max" in f for f in failures)


def test_compare_slope_uses_absolute_tolerance(tmp_path):
    d1 = tmp_path / "run"
    d2 = tmp_path / "gold"
    for d, slope in ((d1, 2.00), (d2, 2.03)):
        d.mkdir()
        (d / "summary.json").write_text(
            json.dumps({"results": {"slope": slope}}))
    assert compare_golden(d1, d2) == []       # |diff| = 0.03 < 0.05
    (d2 / "summary.json").write_text(
        json.dumps({"results": {"slope": 2.08}}))
    assert compare_golden(d1, d2) != []


def test_compare_reconstruction_uses_recon_tolerance(tmp_path, monkeypatch):
    # the stored grid is held to the `recon` entry of TOLERANCES
    b = np.linspace(1.0, 2.0, 12).reshape(3, 4)
    d1, d2 = tmp_path / "run", tmp_path / "gold"
    for d, values in ((d1, b * (1 + 5e-4)), (d2, b)):
        d.mkdir()
        (d / "summary.json").write_text(json.dumps({"results": {}}))
        write_bundle(d / "reconstruction.nfg", {"values": values})
    assert compare_golden(d1, d2) == []
    monkeypatch.setattr(cli, "TOLERANCES", (("recon", "rel", 1e-4),
                                            ("default", "rel", 1e-6)))
    assert compare_golden(d1, d2) == [
        "reconstruction.values: rel err 5.000e-04 > 0.0001"]


def test_compare_missing_golden_is_instructive(tmp_path):
    p = _write(tmp_path, FORWARD_CFG)
    d1 = run_scenario(p, out_root=tmp_path / "out1")
    with pytest.raises(ConfigError, match="nullform run"):
        compare_golden(d1, tmp_path / "nope")


def test_compare_cli_exit_codes(tmp_path, capsys):
    p = _write(tmp_path, FORWARD_CFG)
    d1 = run_scenario(p, out_root=tmp_path / "out1")
    d2 = run_scenario(p, out_root=tmp_path / "out2")
    capsys.readouterr()
    assert main(["compare", str(d1), str(d2)]) == 0
    s = json.loads((d2 / "summary.json").read_text())
    s["results"]["n_angles"] = 999
    (d2 / "summary.json").write_text(json.dumps(s))
    assert main(["compare", str(d1), str(d2)]) == 1
    assert "n_angles" in capsys.readouterr().err


# ----------------------------------------------------------------------
# catalog listing


def test_list_catalog(capsys):
    assert main(["list-catalog"]) == 0
    out = capsys.readouterr().out
    assert "radial_bump" in out and "ramp" in out and "recover" in out
