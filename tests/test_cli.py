"""End-to-end checks of the command line front end.

Everything runs in-process through main(argv), mostly against small 1-d
configs so the whole module stays fast.  Covers the four subcommands, the exit
code contract (0 ok, 1 certificate/invariant failure, 2 config error,
3 non-convergence), report determinism, and the CSV export format.
"""

import dataclasses
import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import exitcert.certificates
import exitcert.cli
import exitcert.config
from exitcert.certificates import GridSpec
from exitcert.cli import main, write_value_table_csv
from exitcert.config import config_from_dict, load_config
from exitcert.library import get_example
from exitcert.synthesis import SynthesisConfig
from exitcert.systems import ConfigError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

MT_CFG = """\
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

# U = 2*sqrt(|x|), the gauge of the sqrt decrease profile, as a candidate
PETROV_CFG = """\
system:
  name: power_law
  params: {r: 0.0, s: -0.5, p0_bar: 0.5}
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


def test_sub_level_set_reaching_the_grid_box_is_not_certified(tmp_path):
    # on [-1, 1] the band top sigma = 1.5 lies beyond the box, so the
    # sub-level set reaches both ends though H = -0.1 on the whole band
    raw = yaml.safe_load((CONFIGS / "minimum_time.yaml").read_text())
    raw["verify"]["grid"] = {"lower": [-1.0], "upper": [1.0], "spacing": 0.01}
    del raw["synthesis"], raw["oracle"]
    cfg = _write(tmp_path, yaml.safe_dump(raw))
    out = tmp_path / "out"
    assert main(["verify", "-c", cfg, "-o", str(out)]) == 1
    rep = json.loads((out / "verify_report.json").read_text())
    cert = rep["certificate"]
    assert cert["worst_h"] == pytest.approx(-0.1)
    assert cert["certified"] is False
    assert [v["kind"] for v in cert["violations"]] == ["properness"] * 2
    assert rep["passed"] is False


# spiral on a coarse grid: 6,889 points, 4,454 of them in the band
SPIRAL_COARSE_CFG = """\
system:
  name: spiral
  params: {epsilon: 0.5, k_const: 1.0, p0_bar: 1.0}
verify:
  delta: 0.05
  sigma: 1.3333333333333333
  grid: {lower: [-4.1, -4.1], upper: [4.1, 4.1], spacing: 0.1}
"""


def test_verify_evaluates_the_grid_once(tmp_path, monkeypatch):
    """U is evaluated once on every grid row, and no Hamiltonian runs in the supersolution check.

    Grid rows are the blocks that ``GridSpec.rows`` builds; U's other
    calls (the semiconcavity probe) evaluate arrays of their own.  The
    run is repeated with 1000-row blocks, so that the coarse grid spans
    seven blocks.
    """
    cfg = _write(tmp_path, SPIRAL_COARSE_CFG)
    n_grid = 83 * 83
    built = {}  # id of a GridSpec.rows result -> (that result, its flat indices)
    evaluated = []
    h_calls = []
    h_calls_in_check = []

    rows = GridSpec.rows

    def recording_rows(self, idx):
        out = rows(self, idx)
        built[id(out)] = (out, np.asarray(idx))
        return out

    def counting_example(name, **params):
        ex = get_example(name, **params)
        batch_value = ex.mrf.batch_value

        def counted(X):
            made = built.get(id(X))
            if made is not None and made[0] is X:
                evaluated.append(made[1])
            return batch_value(X)

        return dataclasses.replace(ex, mrf=dataclasses.replace(ex.mrf, batch_value=counted))

    hamiltonian = exitcert.certificates.hamiltonian

    def counting_hamiltonian(*args, **kwargs):
        h_calls.append(1)
        return hamiltonian(*args, **kwargs)

    check = exitcert.cli.check_supersolution

    def watched_check(*args, **kwargs):
        before = len(h_calls)
        result = check(*args, **kwargs)
        h_calls_in_check.append(len(h_calls) - before)
        return result

    monkeypatch.setattr(GridSpec, "rows", recording_rows)
    monkeypatch.setattr(exitcert.cli, "get_example", counting_example)
    monkeypatch.setattr(exitcert.certificates, "hamiltonian", counting_hamiltonian)
    monkeypatch.setattr(exitcert.cli, "check_supersolution", watched_check)
    for block_rows in (exitcert.certificates.BLOCK_ROWS, 1000):
        monkeypatch.setattr(exitcert.certificates, "BLOCK_ROWS", block_rows)
        for seen in (built, evaluated, h_calls, h_calls_in_check):
            seen.clear()
        assert main(["verify", "-c", cfg, "-o", str(tmp_path / f"out{block_rows}")]) == 0
        assert len(evaluated) == -(-n_grid // block_rows)  # one call per block
        assert np.array_equal(np.sort(np.concatenate(evaluated)), np.arange(n_grid))
        assert h_calls, "the band check evaluates H through certificates.hamiltonian"
        assert h_calls_in_check == [0]


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
    assert main(["verify", "-c", mt_cfg, "-o", str(out)]) == 0
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


@settings(max_examples=60, deadline=None)
@given(
    spacing=st.sampled_from([0.1, 0.05, 0.3]),
    lower=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3),
    data=st.data(),
)
def test_value_table_matches_per_row_rendering(tmp_path_factory, spacing, lower, data):
    extent = st.floats(0.01, 6.0).map(lambda k: k * spacing)
    upper = [lo + data.draw(extent) for lo in lower]
    grid = GridSpec(np.array(lower), np.array(upper), spacing)
    values = np.array(data.draw(st.lists(
        st.floats(allow_nan=False), min_size=grid.n_points, max_size=grid.n_points
    )))
    path = tmp_path_factory.mktemp("table") / "value_table.csv"
    write_value_table_csv(path, SimpleNamespace(grid=grid, values=values))

    header = ",".join([f"x{i + 1}" for i in range(grid.dim)] + ["value"])
    rows = np.column_stack([grid.points(), values]).tolist()
    expected = "\n".join([header] + [",".join(map(repr, row)) for row in rows]) + "\n"
    assert path.read_text() == expected


ODD_SUBSTEPS_CFG = (
    "system: {name: minimum_time_1d}\nsynthesis: {substeps: 7, initial_states: [[1.0]]}"
)
REVERSED_GRID_CFG = (
    "system: {name: minimum_time_1d}\nverify: {grid: {lower: [2.0], upper: [-2.0],"
    " spacing: 0.5}, delta: 0.05, sigma: 1.5}"
)
INFINITE_GRID_CFG = (
    "system: {name: minimum_time_1d}\nverify: {grid: {lower: [-.inf], upper: [2.0],"
    " spacing: 0.5}, delta: 0.05, sigma: 1.5}"
)
NAN_MARGIN_CFG = (
    "system: {name: minimum_time_1d}\nverify: {grid: {lower: [-2.0], upper: [2.0],"
    " spacing: 0.5}, delta: 0.05, sigma: 1.5, margin: .nan}"
)
NAN_ORACLE_TOL_CFG = (
    "system: {name: minimum_time_1d}\nverify: {grid: {lower: [-2.0], upper: [2.0],"
    " spacing: 0.5}, delta: 0.05, sigma: 1.5}\noracle: {grid: {lower: [-2.0],"
    " upper: [2.0], spacing: 0.5}, h: 0.5, oracle_tol: .nan}"
)
NAN_PARAM_CFG = SPIRAL_COARSE_CFG.replace("epsilon: 0.5", "epsilon: .nan")
ZERO_EPSILON_CFG = (
    "system: {name: minimum_time_1d}\nsynthesis: {epsilon: 0.0, initial_states: [[1.0]]}"
)

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
    ODD_SUBSTEPS_CFG,  # substeps: an unknown key
    REVERSED_GRID_CFG,
    INFINITE_GRID_CFG,
    NAN_MARGIN_CFG,
    NAN_ORACLE_TOL_CFG,
    NAN_PARAM_CFG,
    ZERO_EPSILON_CFG,
]


@pytest.mark.parametrize("text", BAD_CONFIGS)
def test_bad_configs_exit_2(tmp_path, text):
    cfg = _write(tmp_path, text, name="bad.yaml")
    assert main(["verify", "-c", cfg, "-o", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "text, dotted",
    [
        (ZERO_EPSILON_CFG, "synthesis.epsilon"),
        (REVERSED_GRID_CFG, "verify.grid"),
        (INFINITE_GRID_CFG, "verify.grid.lower[0]"),
        (NAN_MARGIN_CFG, "verify.margin"),
        (NAN_ORACLE_TOL_CFG, "oracle.oracle_tol"),
        (NAN_PARAM_CFG, "system.params.epsilon"),
    ],
)
def test_config_errors_name_the_field(text, dotted):
    with pytest.raises(ConfigError, match=rf"config field '{re.escape(dotted)}'"):
        config_from_dict(yaml.safe_load(text))


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
@pytest.mark.parametrize(
    "text",
    [pytest.param(text, id=f"bad{i}") for i, text in enumerate(BAD_CONFIGS)]
    + [pytest.param(p.read_text(), id=p.stem) for p in sorted(CONFIGS.glob("*.yaml"))],
)
def test_libyaml_and_python_loaders_agree(tmp_path, monkeypatch, text):
    """load_config parses with libyaml: the same tree, config or error as SafeLoader."""
    assert exitcert.config._YAML_LOADER is yaml.CSafeLoader
    path = _write(tmp_path, text, name="c.yaml")
    results = []
    for loader in (yaml.SafeLoader, yaml.CSafeLoader):
        monkeypatch.setattr(exitcert.config, "_YAML_LOADER", loader)
        try:
            tree = repr(yaml.load(text, Loader=loader))
        except yaml.YAMLError as exc:
            tree = type(exc)  # libyaml words its messages differently
        try:
            parsed = load_config(path).digest()
        except ConfigError as exc:
            parsed = ConfigError if isinstance(tree, type) else str(exc)
        results.append((tree, parsed))
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "key, value",
    [("epsilon", 0.5), ("epsilon", -0.1), ("d_tol", 1e-2), ("d_tol", 0.0)],
)
def test_yaml_and_library_share_synthesis_bounds(key, value):
    """A setting the library accepts parses from YAML; one it rejects names its field.

    d_tol is the constant synthesis.D_TOL: neither side takes it as a setting.
    """
    raw = yaml.safe_load(MT_CFG)
    raw["synthesis"][key] = value
    try:
        SynthesisConfig(**{key: value})
    except TypeError:
        unknown = rf"config field 'synthesis': unknown key\(s\) \['{key}'\]"
        with pytest.raises(ConfigError, match=unknown):
            config_from_dict(raw)
    except ConfigError:
        with pytest.raises(ConfigError, match=rf"config field 'synthesis\.{key}'"):
            config_from_dict(raw)
    else:
        assert getattr(config_from_dict(raw).synthesis, key) == value


@pytest.mark.parametrize(
    "section, key",
    [(None, "threads"), ("synthesis", "band_delta"), ("verify", "max_points"), (None, "kl"),
     ("verify", "supersolution"), ("synthesis", "band_sigma")]
    + [("synthesis", key) for key in (
        "nu_ratio", "max_levels", "delta_init", "substeps", "level_tol_rel", "delta_min_rel",
        "mf_safety", "max_steps_per_leg")]
    + [("verify", key) for key in ("d_tol", "u_tol", "eta", "n_levels")]
    + [(None, "seed"), ("synthesis", "d_tol")]
    + [("petrov", key) for key in ("profile", "delta", "p0_bar")],
)
def test_removed_knobs_are_unknown_keys(tmp_path, section, key):
    raw = yaml.safe_load(MT_CFG)
    (raw.setdefault(section, {}) if section else raw)[key] = 1
    with pytest.raises(ConfigError, match=rf"unknown key\(s\) \['{key}'\]"):
        config_from_dict(raw)
    cfg = _write(tmp_path, yaml.safe_dump(raw))
    assert main(["verify", "-c", cfg, "-o", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("section, key", [("oracle", "target_radius"), ("oracle", "oracle_tol")])
def test_null_optional_field_takes_its_default(section, key):
    raw = yaml.safe_load(MT_CFG)
    digest = config_from_dict(raw).digest()
    raw[section][key] = None
    assert config_from_dict(raw).digest() == digest


@pytest.mark.parametrize("section, key", [("petrov", "enabled"), ("output", "dir")])
def test_null_is_no_value_for_other_fields(section, key):
    raw = yaml.safe_load(MT_CFG)
    raw.setdefault(section, {})[key] = None
    with pytest.raises(ConfigError, match=rf"config field '{section}\.{key}'"):
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
    assert main(["verify", "-c", cfg, "-o", str(out)]) == 1
    capsys.readouterr()
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

    # margins are still positive, so --force can run against the table,
    # and the uncertified band still carries the envelope tables
    assert json.loads((out / "verify_report.json").read_text())["envelope_tables"]["n_usable"] > 0
    assert main(["synthesize", "-c", cfg, "-o", str(out), "--force"]) == 0
    rep = json.loads((out / "synthesis_report.json").read_text())
    assert rep["forced"] is True
    assert rep["certified"] is False
    assert rep["passed"] is True


def test_synthesize_needs_a_verify_report(tmp_path, mt_cfg, capsys):
    out = tmp_path / "out"
    for extra in ([], ["--force"]):
        assert main(["synthesize", "-c", mt_cfg, "-o", str(out), *extra]) == 1
        assert "run 'verify' first" in capsys.readouterr().out
    assert not (out / "verify_report.json").exists()
    assert not (out / "synthesis_report.json").exists()


def _verified(tmp_path, text=MT_CFG, name="run.yaml"):
    """A config path and an output directory holding its verify report."""
    cfg = _write(tmp_path, text, name=name)
    out = tmp_path / "out"
    main(["verify", "-c", cfg, "-o", str(out)])
    return cfg, out


def _edit_verify_report(out, edit):
    path = out / "verify_report.json"
    rep = json.loads(path.read_text())
    edit(rep)
    path.write_text(json.dumps(rep))


def test_synthesize_refuses_a_verify_report_from_another_config(tmp_path, capsys):
    _, out = _verified(tmp_path)
    other = _write(tmp_path, MT_CFG.replace("epsilon: 0.1", "epsilon: 0.2"), name="other.yaml")
    capsys.readouterr()
    for extra in ([], ["--force"]):
        assert main(["synthesize", "-c", other, "-o", str(out), *extra]) == 1
        assert "from another run" in capsys.readouterr().out
    assert not (out / "synthesis_report.json").exists()


def test_synthesize_refuses_a_verify_report_from_another_version(tmp_path, capsys):
    cfg, out = _verified(tmp_path)
    _edit_verify_report(out, lambda rep: rep.update(tool_version="0.0.0"))
    capsys.readouterr()
    assert main(["synthesize", "-c", cfg, "-o", str(out), "--force"]) == 1
    assert "from another run" in capsys.readouterr().out
    assert not (out / "synthesis_report.json").exists()


def test_synthesize_refuses_a_start_above_the_certified_band(tmp_path, capsys):
    cfg, out = _verified(tmp_path, MT_CFG.replace("[[1.0]]", "[[1.55]]"))
    capsys.readouterr()
    assert main(["synthesize", "-c", cfg, "-o", str(out)]) == 1
    assert "0/1 states ok" in capsys.readouterr().out
    rep = json.loads((out / "synthesis_report.json").read_text())
    assert rep["certified"] is True
    assert rep["passed"] is False
    assert rep["band_top"] == 1.5
    state = rep["states"][0]
    assert state["ok"] is False
    assert state["error"] == "ConfigError"
    assert "certified band top 1.5" in state["message"]
    assert not (out / "trajectory_0.csv").exists()


def test_synthesize_ignores_the_verify_seed(tmp_path):
    cfg = _write(tmp_path, MT_CFG)
    out = tmp_path / "out"
    assert main(["verify", "-c", cfg, "-o", str(out), "--seed", "7"]) == 0
    assert main(["synthesize", "-c", cfg, "-o", str(out)]) == 0


# V = U = 2*sqrt(|x|) (power law, r = 0, s = -0.5), a certified closed-form case
FLAT_ENVELOPE_CFG = """\
system:
  name: power_law
  params: {r: 0.0, s: -0.5, m1: 1.0, m2: 1.0, p0_bar: 0.9}
verify:
  delta: 0.05
  sigma: 1.0
  grid: {lower: [-2.0], upper: [2.0], spacing: 0.01}
synthesis:
  epsilon: 0.1
  initial_states: [[0.2]]
"""


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14: where sigma_plus equals its pad, "
                   "lift_strict's slope floor is below rounding, and beta is not strictly "
                   "increasing in r in floats")
def test_decay_certificate_holds_where_the_envelope_is_flat(tmp_path):
    cfg, out = _verified(tmp_path, FLAT_ENVELOPE_CFG)
    assert json.loads((out / "verify_report.json").read_text())["passed"] is True
    assert main(["synthesize", "-c", cfg, "-o", str(out)]) == 0
    rep = json.loads((out / "synthesis_report.json").read_text())
    assert rep["decay_certificate"]["axioms"]["passed"] is True


def test_blocked_synthesize_leaves_the_verify_report_alone(tmp_path, capsys):
    cfg = _write(tmp_path, STRICT_MARGIN_CFG)
    out = tmp_path / "out"
    # another seed than synthesize's, so a rewritten report would differ
    assert main(["verify", "-c", cfg, "-o", str(out), "--seed", "7"]) == 1
    before = (out / "verify_report.json").read_bytes()
    assert main(["synthesize", "-c", cfg, "-o", str(out)]) == 1
    assert "blocked" in capsys.readouterr().out
    assert (out / "verify_report.json").read_bytes() == before


def test_synthesize_refuses_edited_modulus_knots(tmp_path, capsys, caplog):
    cfg, out = _verified(tmp_path)

    def nudge(rep):
        rep["modulus"]["knot_values"][-1] *= 1.0 + 1e-15

    _edit_verify_report(out, nudge)
    capsys.readouterr()
    assert main(["synthesize", "-c", cfg, "-o", str(out)]) == 1
    assert "no decrease modulus" in capsys.readouterr().out
    assert "does not rebuild the stored modulus knots" in caplog.text
    assert not (out / "synthesis_report.json").exists()


def test_synthesize_blocks_on_a_missing_margin(tmp_path, capsys):
    cfg, out = _verified(tmp_path)

    def drop_margin(rep):
        rep["certificate"]["m_hat_samples"][0][1] = None

    _edit_verify_report(out, drop_margin)
    capsys.readouterr()
    assert main(["synthesize", "-c", cfg, "-o", str(out), "--force"]) == 1
    assert "no decrease modulus" in capsys.readouterr().out


def test_synthesize_blocks_on_missing_envelope_tables(tmp_path, capsys, caplog):
    cfg, out = _verified(tmp_path)
    _edit_verify_report(out, lambda rep: rep.pop("envelope_tables"))
    capsys.readouterr()
    for extra in ([], ["--force"]):
        assert main(["synthesize", "-c", cfg, "-o", str(out), *extra]) == 1
        assert "blocked, no envelope tables" in capsys.readouterr().out
    assert "holds no distance-envelope tables" in caplog.text
    assert not (out / "synthesis_report.json").exists()


@pytest.mark.parametrize("name", ["minimum_time", "spiral_ring"])
def test_synthesize_walks_no_grid(tmp_path, monkeypatch, name):
    """Synthesize builds its envelopes from verify's tables, not from the verify grid."""
    cfg = str(CONFIGS / f"{name}.yaml")
    runs = {}
    for walk in ("allowed", "refused"):
        out = tmp_path / walk
        assert main(["verify", "-c", cfg, "-o", str(out)]) == 0
        if walk == "refused":
            def refuse(*args, **kwargs):
                raise AssertionError("synthesize walked the grid")

            monkeypatch.setattr(GridSpec, "rows", refuse)
            monkeypatch.setattr(GridSpec, "points", refuse)
        assert main(["synthesize", "-c", cfg, "-o", str(out)]) == 0
        runs[walk] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert runs["refused"] == runs["allowed"]


def test_unreadable_stage_report_exits_2(tmp_path, mt_cfg):
    out = tmp_path / "out"
    out.mkdir()
    (out / "verify_report.json").write_text("{not json")
    assert main(["synthesize", "-c", mt_cfg, "-o", str(out)]) == 2
    assert main(["report", "-o", str(out)]) == 2


@pytest.mark.parametrize("command", ["synthesize", "report"])
def test_stage_report_that_is_not_an_object_exits_2(tmp_path, mt_cfg, caplog, command):
    out = tmp_path / "out"
    out.mkdir()
    (out / "verify_report.json").write_text("[1, 2]")
    argv = [command, "-o", str(out)] + (["-c", mt_cfg] if command == "synthesize" else [])
    assert main(argv) == 2
    assert "verify_report.json does not hold a JSON object" in caplog.text


def test_force_is_a_synthesize_flag(tmp_path, mt_cfg):
    for command in ("verify", "oracle"):
        with pytest.raises(SystemExit) as exc:
            main([command, "-c", mt_cfg, "-o", str(tmp_path / "out"), "--force"])
        assert exc.value.code == 2


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
