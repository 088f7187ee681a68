"""End-to-end checks of the command line front end.

Everything runs in-process through main(argv), mostly against small 1-d
configs so the whole module stays fast.  Covers the four subcommands, the exit
code contract (0 ok, 1 certificate/invariant failure, 2 config error,
3 non-convergence), report determinism, and the CSV export format.
"""

import json
from pathlib import Path

import pytest
import yaml

from exitcert.cli import main
from exitcert.config import config_from_dict
from exitcert.systems import ConfigError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

MT_CFG = """\
seed: 0
system:
  name: minimum_time_1d
  params: {p0_bar: 0.9}
verify:
  delta: 0.05
  sigma: 1.5
  grid: {lower: [-2.0], upper: [2.0], spacing: 0.01}
synthesis:
  initial_states: [[1.0]]
  epsilon: 0.1
oracle:
  grid: {lower: [-2.0], upper: [2.0], spacing: 0.01}
  h: 0.01
"""

# same run but with an unmeetable decrease margin: the candidate stays
# rejected for certification while the margin table itself is still usable
STRICT_MARGIN_CFG = """\
system:
  name: minimum_time_1d
  params: {p0_bar: 0.9}
verify:
  delta: 0.05
  sigma: 1.5
  margin: 0.5
  grid: {lower: [-2.0], upper: [2.0], spacing: 0.01}
synthesis:
  initial_states: [[1.0]]
  epsilon: 0.1
"""

REJECT_CFG = """\
system:
  name: power_law
  params: {r: 0.0, s: -1.0}
verify:
  delta: 0.05
  sigma: 1.0
  grid: {lower: [-2.0], upper: [2.0], spacing: 0.01}
synthesis:
  initial_states: [[0.5]]
"""

# the gauge 2*sqrt(|x|) of the sqrt decrease profile, as a candidate
PETROV_CFG = """\
system:
  name: petrov_demo
  params: {profile: sqrt}
verify:
  delta: 0.05
  sigma: 1.5
  grid: {lower: [-2.0], upper: [2.0], spacing: 0.01}
"""

NOCONV_CFG = """\
system:
  name: minimum_time_1d
  params: {p0_bar: 0.9}
oracle:
  grid: {lower: [-2.0], upper: [2.0], spacing: 0.01}
  h: 0.01
  max_sweeps: 1
"""


def _write(tmp_path, text, name="run.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture()
def mt_cfg(tmp_path):
    return _write(tmp_path, MT_CFG)


def test_full_pipeline(tmp_path, mt_cfg, capsys):
    out = str(tmp_path / "out")
    assert main(["verify", "-c", mt_cfg, "-o", out]) == 0
    assert main(["synthesize", "-c", mt_cfg, "-o", out]) == 0
    assert main(["oracle", "-c", mt_cfg, "-o", out]) == 0
    assert main(["report", "-o", out]) == 0
    text = capsys.readouterr().out
    assert "verify: ok" in text
    assert "overall: ok" in text
    merged = json.loads((tmp_path / "out" / "report.json").read_text())
    assert set(merged["stages"]) == {"verify", "synthesis", "oracle"}
    assert merged["passed"] is True


def test_verify_report_contents(tmp_path, mt_cfg):
    out = tmp_path / "out"
    assert main(["verify", "-c", mt_cfg, "-o", str(out)]) == 0
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["schema_version"] == "1"
    assert "backend" not in rep
    assert rep["seed"] == 0
    assert len(rep["config_digest"]) == 16
    assert rep["passed"] is True
    assert rep["certificate"]["certified"] is True
    assert rep["supersolution"]["passed"] is True
    assert rep["modulus"]["knot_levels"][0] == 0.0
    assert rep["rejection"] is None


def test_petrov_candidate_supersolution_checks_points(tmp_path):
    cfg = _write(tmp_path, PETROV_CFG)
    out = tmp_path / "out"
    assert main(["verify", "-c", cfg, "-o", str(out)]) == 0
    rep = json.loads((out / "verify_report.json").read_text())
    supers = rep["supersolution"]
    assert supers["passed"] is True
    assert supers["n_checked"] > 0
    assert supers["n_checked"] == rep["certificate"]["n_band"]
    assert supers["worst_margin"] < 0


def test_reports_are_byte_identical_across_runs(tmp_path, mt_cfg):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["verify", "-c", mt_cfg, "-o", str(a)]) == 0
    assert main(["verify", "-c", mt_cfg, "-o", str(b)]) == 0
    assert (a / "verify_report.json").read_bytes() == (b / "verify_report.json").read_bytes()


def test_seed_override_is_recorded(tmp_path, mt_cfg):
    out = tmp_path / "out"
    assert main(["verify", "-c", mt_cfg, "-o", str(out), "--seed", "7"]) == 0
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["seed"] == 7


def test_synthesize_writes_trajectory_csv(tmp_path, mt_cfg):
    out = tmp_path / "out"
    assert main(["synthesize", "-c", mt_cfg, "-o", str(out)]) == 0
    rep = json.loads((out / "synthesis_report.json").read_text())
    state = rep["states"][0]
    assert state["ok"] is True
    assert state["status"] == "approached_target"
    assert state["decay_audit"]["passed"] is True
    assert state["trajectory_file"] == "trajectory_0.csv"
    for leg in state["legs"]:
        assert all(leg["checks"].values()), leg["checks"]
    assert rep["decay_certificate"]["axioms"]["passed"] is True

    lines = (out / "trajectory_0.csv").read_text().splitlines()
    assert lines[0] == "t,s,x1,control_index,U,d,cost"
    assert len(lines) == state["n_nodes"] + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.0
    cost = [float(row.split(",")[-1]) for row in lines[1:]]
    assert cost == sorted(cost)
    assert all(row.split(",")[3] in ("0", "1") for row in lines[1:])


def test_oracle_report_contents(tmp_path, mt_cfg):
    out = tmp_path / "out"
    assert main(["oracle", "-c", mt_cfg, "-o", str(out)]) == 0
    rep = json.loads((out / "oracle_report.json").read_text())
    assert rep["converged"] is True
    assert rep["passed"] is True
    assert rep["analytic_comparison"]["sup_error"] < 1e-9
    comp = rep["bound_comparison"]
    assert comp["passed"] is True
    assert comp["n_checked"] == 400
    table = (out / "value_table.csv").read_text().splitlines()
    assert table[0] == "x1,value"
    assert len(table) == 402


BAD_CONFIGS = [
    "bogus: 1\nsystem: {name: minimum_time_1d}",
    "system: {name: no_such_system}",
    "system: {name: minimum_time_1d}",  # verify command, no verify section
    "system: {name: minimum_time_1d}\nverify: {delta: 0.05, sigma: 1.5}",
    "system: {name: minimum_time_1d}\nverify: {delta: 0.05, sigma: 1.5,"
    " grid: {lower: [-2.0], upper: [2.0], spacing: 0.5}, wrong: 1}",
    "system: {name: minimum_time_1d}\nsynthesis: {initial_states: [[1.0, 2.0]]}",
    "system: [not, a, mapping]",
    "foo: [unclosed",
]


@pytest.mark.parametrize("text", BAD_CONFIGS)
def test_bad_configs_exit_2(tmp_path, text):
    cfg = _write(tmp_path, text, name="bad.yaml")
    assert main(["verify", "-c", cfg, "-o", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("section, key", [(None, "threads"), ("synthesis", "band_delta")])
def test_removed_knobs_are_unknown_keys(section, key):
    raw = yaml.safe_load(MT_CFG)
    (raw[section] if section else raw)[key] = 1
    with pytest.raises(ConfigError, match=rf"unknown key\(s\) \['{key}'\]"):
        config_from_dict(raw)


def test_missing_config_file_exits_2(tmp_path):
    assert main(["verify", "-c", str(tmp_path / "nope.yaml")]) == 2


def test_rejected_candidate_exits_1(tmp_path, capsys):
    cfg = _write(tmp_path, REJECT_CFG)
    out = tmp_path / "out"
    assert main(["verify", "-c", cfg, "-o", str(out)]) == 1
    assert "REJECTED" in capsys.readouterr().out
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["passed"] is False
    assert rep["certificate"] is None
    assert rep["rejection"]["reason"] == "positive_definiteness"
    assert rep["rejection"]["n_violations"] > 0


def test_force_without_modulus_is_still_blocked(tmp_path, capsys):
    cfg = _write(tmp_path, REJECT_CFG)
    out = tmp_path / "out"
    assert main(["synthesize", "-c", cfg, "-o", str(out), "--force"]) == 1
    assert "no decrease modulus" in capsys.readouterr().out


def test_uncertified_blocks_synthesis_until_forced(tmp_path, capsys):
    cfg = _write(tmp_path, STRICT_MARGIN_CFG)
    out = tmp_path / "out"
    assert main(["verify", "-c", cfg, "-o", str(out)]) == 1
    assert "NOT certified" in capsys.readouterr().out

    assert main(["synthesize", "-c", cfg, "-o", str(out)]) == 1
    assert "blocked" in capsys.readouterr().out
    assert not (out / "synthesis_report.json").exists()

    # margins are still positive, so --force can run against the table
    assert main(["synthesize", "-c", cfg, "-o", str(out), "--force"]) == 0
    rep = json.loads((out / "synthesis_report.json").read_text())
    assert rep["forced"] is True
    assert rep["certified"] is False
    assert rep["passed"] is True


def test_oracle_nonconvergence_exits_3(tmp_path, capsys):
    cfg = _write(tmp_path, NOCONV_CFG)
    out = tmp_path / "out"
    assert main(["oracle", "-c", cfg, "-o", str(out)]) == 3
    assert "NO CONVERGENCE" in capsys.readouterr().out
    rep = json.loads((out / "oracle_report.json").read_text())
    assert rep["converged"] is False
    assert rep["passed"] is False
    assert rep["sweeps"] == 1


def test_report_flags_failed_stage(tmp_path, capsys):
    cfg = _write(tmp_path, REJECT_CFG)
    out = tmp_path / "out"
    assert main(["verify", "-c", cfg, "-o", str(out)]) == 1
    capsys.readouterr()
    assert main(["report", "-o", str(out)]) == 1
    text = capsys.readouterr().out
    assert "verify: FAILED" in text
    assert "overall: FAILED" in text


def test_report_refuses_stage_files_from_different_runs(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["verify", "-c", str(CONFIGS / "minimum_time.yaml"), "-o", str(out)]) == 0
    assert main(["oracle", "-c", str(CONFIGS / "spiral_ring.yaml"), "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", "-o", str(out)]) == 1
    text = capsys.readouterr().out
    assert "verify: ok" in text and "oracle: ok" in text
    line = next(s for s in text.splitlines() if "config_digest" in s)
    assert "verify_report.json" in line and "oracle_report.json" in line
    assert "tool_version" not in text
    assert "overall: FAILED" in text
    merged = json.loads((out / "report.json").read_text())
    assert set(merged) == {"schema_version", "kind", "stages", "passed"}
    assert merged["passed"] is False

    # one config, but a stage file written by another version
    cfg = _write(tmp_path, MT_CFG)
    out = tmp_path / "out_versions"
    assert main(["verify", "-c", cfg, "-o", str(out)]) == 0
    assert main(["oracle", "-c", cfg, "-o", str(out)]) == 0
    oracle = json.loads((out / "oracle_report.json").read_text())
    oracle["tool_version"] = "0.0.0"
    (out / "oracle_report.json").write_text(json.dumps(oracle))
    capsys.readouterr()
    assert main(["report", "-o", str(out)]) == 1
    text = capsys.readouterr().out
    assert "tool_version" in text and "oracle_report.json=0.0.0" in text
    assert "config_digest" not in text


def test_report_requires_stage_files(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", "-o", str(empty)]) == 2
    assert main(["report", "-o", str(tmp_path / "missing")]) == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("exitcert ")
