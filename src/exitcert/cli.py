"""Command line front end.

Four subcommands: ``verify`` checks a candidate restraint function on
its band and emits a certificate report, ``synthesize`` reads that
report and drives the constructive trajectory pipeline from configured
initial states, ``oracle`` cross-checks the certified bound against a
brute-force dynamic-programming value table, and ``report`` merges the
stage outputs into one tree.

Exit codes: 0 success, 1 certificate or invariant failure, 2 config
error, 3 numerical non-convergence.  Reports are deterministic given
the config and seed: keys are sorted, floats are written with repr
round-tripping, and no wall-clock data enters the files (timings go to
the stderr log).  No stage draws random numbers; the seed, ``--seed``
(default 0), is recorded in each report's provenance only.  With
``petrov.enabled``, ``verify`` also runs the weak-decrease check, with
the rate ``sqrt_rate`` on 0 < d < ``PETROV_DELTA`` and the composed
candidate's p0_bar ``PETROV_P0_BAR`` (constants in ``certificates``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .certificates import (
    ETA,
    DecreaseModulus,
    PositiveDefinitenessViolation,
    build_decrease_modulus,
    check_supersolution,
    check_weak_petrov,
    verify_mrf_band,
)
from .config import RunConfig, as_plain, load_config
from .library import get_example
from .oracle import RESOLVED, NonConvergence, compare_bound, hjb_value_iteration
from .synthesis import (
    FeedbackGap,
    ModulusError,
    StepCollapse,
    build_kl_bound,
    build_sigma_envelopes,
    envelope_levels,
    synthesize,
    verify_kl,
)
from .systems import (
    ConfigError,
    NegativeLagrangian,
    SingularDynamics,
)

log = logging.getLogger("exitcert.cli")

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3


# ----------------------------------------------------------------------
# report plumbing


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(as_plain(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"
    path.write_text(text)
    log.info("wrote %s (%d bytes)", path, len(text))


def write_trajectory_csv(path: Path, traj) -> None:
    """One node per row: t, s, coordinates, control index, U, d, cost."""
    dim = traj.states.shape[1]
    header = ["t", "s"] + [f"x{i + 1}" for i in range(dim)] + ["control_index", "U", "d", "cost"]
    lines = [",".join(header)]
    floats = np.column_stack([traj.t, traj.s, traj.states, traj.u, traj.d, traj.cost]).tolist()
    for row, a in zip(floats, traj.a_index.tolist()):
        head = ",".join(map(repr, row[: 2 + dim]))
        tail = ",".join(map(repr, row[2 + dim :]))
        lines.append(f"{head},{a},{tail}")
    path.write_text("\n".join(lines) + "\n")
    log.info("wrote %s (%d nodes)", path, traj.n_nodes)


def write_value_table_csv(path: Path, table) -> None:
    """One node per row: coordinates, then the table value.

    Rows run over the grid in ``points()`` order (the ``ij`` meshgrid of
    the axes), so each axis coordinate is formatted once and the row
    heads are their Cartesian product.
    """
    axes = [[repr(v) for v in ax.tolist()] for ax in table.grid.axes()]
    header = [f"x{i + 1}" for i in range(len(axes))] + ["value"]
    heads = map(",".join, itertools.product(*axes))
    rows = zip(heads, table.values.tolist(), strict=True)
    with path.open("w") as fh:  # streamed: the table never exists as one string
        fh.write(",".join(header) + "\n")
        fh.writelines(f"{head},{value!r}\n" for head, value in rows)
    log.info("wrote %s (%d nodes)", path, table.values.size)


def _out_dir(args, cfg: RunConfig) -> Path:
    out = Path(args.out) if args.out else Path(cfg.output.dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _provenance(cfg: RunConfig, seed: int) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "seed": seed,
        "config_digest": cfg.digest(),
        "system": {"name": cfg.system.name, "params": cfg.system.params},
    }


# stage files merged into one report, and the verify report synthesis
# reads, must agree with each other on these
_SHARED_PROVENANCE = ("config_digest", "tool_version")


def _read_stage(path: Path) -> Optional[dict]:
    """A stage report as a dict, or None when the file does not exist."""
    if not path.is_file():
        return None
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"{path} does not hold a JSON object")
    return payload


def _provenance_conflicts(sources: dict) -> dict:
    """The shared provenance keys on which the named sources disagree.

    Maps each such key to a ``name=value, ...`` listing of the sources;
    empty when all agree.
    """
    conflicts = {}
    for key in _SHARED_PROVENANCE:
        seen = {name: payload.get(key) for name, payload in sources.items()}
        if len(set(seen.values())) > 1:
            conflicts[key] = ", ".join(f"{name}={value}" for name, value in seen.items())
    return conflicts


# ----------------------------------------------------------------------
# verify


def _verify_report(cfg: RunConfig, seed: int) -> dict:
    """Check the candidate on its band; returns the verify report."""
    vcfg = cfg.require("verify")
    example = get_example(cfg.system.name, **cfg.system.params)
    grid = vcfg.grid

    cert = None
    rejection = None
    try:
        cert = verify_mrf_band(
            example.system,
            example.target,
            example.mrf,
            vcfg.delta,
            vcfg.sigma,
            grid,
            margin=vcfg.margin,
            # synthesize rebuilds its distance envelopes from these tables
            envelope_levels=None if cfg.synthesis is None else envelope_levels(vcfg.sigma),
        )
    except PositiveDefinitenessViolation as exc:
        rejection = {
            "reason": "positive_definiteness",
            "message": str(exc),
            "n_violations": exc.total,
            "examples": exc.violations,
        }
        log.error("candidate rejected: %s", exc)

    modulus = None
    modulus_error = None
    supers = None
    if cert is not None:
        try:
            modulus = build_decrease_modulus(cert.m_hat_samples)
        except ValueError as exc:
            modulus_error = str(exc)
            log.warning("no decrease modulus: %s", exc)
        if cert.certified and modulus is not None:
            supers = check_supersolution(example.mrf, modulus, cert.samples)
            log.info(
                "supersolution check: %s (worst margin %.3g over %d points)",
                "ok" if supers["passed"] else "FAILED",
                supers["worst_margin"],
                supers["n_checked"],
            )

    petrov = None
    if cfg.petrov.enabled:
        petrov = {"profile": "sqrt",
                  **check_weak_petrov(example.system, example.target, grid.points())}

    passed = bool(
        cert is not None
        and cert.certified
        and (supers is None or supers["passed"])
        and (petrov is None or petrov["ok"])
    )
    report = _provenance(cfg, seed)
    report.update(
        {
            "kind": "verify",
            "passed": passed,
            "band": {"delta": vcfg.delta, "sigma": vcfg.sigma, "margin": vcfg.margin},
            "grid": {
                "lower": grid.lower.tolist(),
                "upper": grid.upper.tolist(),
                "spacing": grid.spacing,
            },
            "certificate": cert.to_dict() if cert is not None else None,
            "rejection": rejection,
            "modulus": (
                {
                    "knot_levels": modulus.pl.xs.tolist(),
                    "knot_values": modulus.pl.ys.tolist(),
                    "eta": ETA,
                }
                if modulus is not None
                else None
            ),
            "modulus_error": modulus_error,
            "supersolution": supers,
            "weak_decrease": petrov,
        }
    )
    if cfg.synthesis is not None:
        report["envelope_tables"] = cert.envelope_tables if cert is not None else None
    return report


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args, cfg)
    report = _verify_report(cfg, args.seed)
    _write_json(out / "verify_report.json", report)
    if report["passed"]:
        cert = report["certificate"]
        print(
            f"verify: certified on [{cfg.verify.delta:g}, {cfg.verify.sigma:g}] "
            f"(worst margin {cert['worst_h']:g} over {cert['n_band']} samples)"
        )
        return EXIT_OK
    if report["rejection"] is not None:
        print(f"verify: REJECTED ({report['rejection']['reason']})")
    else:
        print("verify: NOT certified")
    return EXIT_FAILURE


# ----------------------------------------------------------------------
# synthesize


def _synthesize_one(example, modulus, syn_cfg, sigma, kl, idx, x0):
    """Run one initial state; returns a report entry and the trajectory."""
    entry: dict = {"index": idx, "x0": [float(v) for v in x0]}
    try:
        res = synthesize(
            example.system,
            example.target,
            example.mrf,
            modulus,
            np.asarray(x0, dtype=float),
            syn_cfg,
            sigma=sigma,
        )
    except (FeedbackGap, StepCollapse, ModulusError, SingularDynamics, ValueError) as exc:
        entry.update(
            {
                "ok": False,
                "error": type(exc).__name__,
                "message": str(exc),
            }
        )
        log.error("state %d %s: %s: %s", idx, list(x0), type(exc).__name__, exc)
        return entry, None

    rep = res.report()
    traj = res.trajectory
    entry.update(rep)
    entry.update(
        {
            "t_end": float(traj.t[-1]),
            "s_end": float(traj.s[-1]),
            "d_end": float(traj.d[-1]),
            "n_nodes": traj.n_nodes,
        }
    )
    ok = (all(all(leg["checks"].values()) for leg in rep["legs"])
          and rep["cost_within_bound"] is not False)
    if kl is not None:  # None when the decay certificate could not be built
        entry["decay_audit"] = verify_kl(traj, kl)
        ok = ok and entry["decay_audit"]["passed"]
    entry["ok"] = bool(ok)
    return entry, traj


def _stored_modulus(verify: dict) -> DecreaseModulus:
    """Rebuild the decrease modulus from a verify report's margin table.

    Raises ``ValueError`` saying why when the report carries no usable
    modulus, or when the rebuilt knots differ from the stored ones.
    """
    stored = verify.get("modulus")
    if stored is None:
        raise ValueError(verify.get("modulus_error") or "candidate was rejected outright")
    samples = (verify.get("certificate") or {}).get("m_hat_samples") or []
    if any(v is None for pair in samples for v in pair):
        raise ValueError("the margin table holds a non-finite margin")
    modulus = build_decrease_modulus(samples)
    if (modulus.pl.xs.tolist() != stored.get("knot_levels")
            or modulus.pl.ys.tolist() != stored.get("knot_values")):
        raise ValueError("the margin table does not rebuild the stored modulus knots")
    return modulus


def cmd_synthesize(args) -> int:
    cfg = load_config(args.config)
    scfg = cfg.require("synthesis")
    vcfg = cfg.require("verify")
    out = _out_dir(args, cfg)

    verify = _read_stage(out / "verify_report.json")
    if verify is None:
        log.error("no verify_report.json in %s; run 'verify' with this config first", out)
        print("synthesize: blocked, no verify report (run 'verify' first)")
        return EXIT_FAILURE
    conflicts = _provenance_conflicts(
        {"verify_report.json": verify, "this run": _provenance(cfg, args.seed)}
    )
    if conflicts:
        for key, listed in conflicts.items():
            log.error("verify_report.json is from another run: %s differs (%s)", key, listed)
        print("synthesize: blocked, verify_report.json is from another run")
        return EXIT_FAILURE

    passed = bool(verify.get("passed", False))
    if not passed and not args.force:
        log.error(
            "no verification certificate; inspect verify_report.json, or pass --force "
            "to synthesize against an uncertified candidate"
        )
        print("synthesize: blocked, candidate not certified (see verify_report.json)")
        return EXIT_FAILURE
    try:
        modulus = _stored_modulus(verify)
    except ValueError as exc:
        log.error("cannot synthesize without a decrease modulus: %s", exc)
        print("synthesize: blocked, no decrease modulus")
        return EXIT_FAILURE
    tables = verify.get("envelope_tables")
    if not isinstance(tables, dict):
        log.error("verify_report.json holds no distance-envelope tables; run 'verify' again")
        print("synthesize: blocked, no envelope tables (run 'verify' again)")
        return EXIT_FAILURE

    example = get_example(cfg.system.name, **cfg.system.params)
    kl = None
    try:
        sm, sp = build_sigma_envelopes(tables, vcfg.sigma, vcfg.grid.spacing, vcfg.grid.dim)
        kl = build_kl_bound(sm, sp, modulus, scfg.epsilon)
        kl_block = {"bound": kl.to_dict(), "axioms": kl.validate_axioms()}
    except ValueError as exc:
        kl_block = {"error": type(exc).__name__, "message": str(exc)}
        log.error("decay certificate unavailable: %s", exc)

    entries = []
    for idx, x0 in enumerate(scfg.initial_states):
        entry, traj = _synthesize_one(example, modulus, scfg, vcfg.sigma, kl, idx, x0)
        if traj is not None:
            fname = f"trajectory_{entry['index']}.csv"
            write_trajectory_csv(out / fname, traj)
            entry["trajectory_file"] = fname
        entries.append(entry)

    axioms_ok = bool(kl_block.get("axioms", {}).get("passed", False))
    all_ok = axioms_ok and all(e.get("ok", False) for e in entries)

    report = _provenance(cfg, args.seed)
    report.update(
        {
            "kind": "synthesize",
            "passed": bool(all_ok),
            "forced": bool(args.force and not passed),
            "certified": passed,
            "epsilon": scfg.epsilon,
            "band_top": vcfg.sigma,
            "decay_certificate": kl_block,
            "states": entries,
        }
    )
    _write_json(out / "synthesis_report.json", report)

    n_ok = sum(1 for e in entries if e.get("ok"))
    print(f"synthesize: {n_ok}/{len(entries)} states ok"
          + ("" if axioms_ok else "; decay certificate FAILED"))
    return EXIT_OK if all_ok else EXIT_FAILURE


# ----------------------------------------------------------------------
# oracle


def cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    ocfg = cfg.require("oracle")
    out = _out_dir(args, cfg)

    example = get_example(cfg.system.name, **cfg.system.params)
    grid = ocfg.grid

    pin = None
    include = None
    collar_info = None
    if ocfg.collar > 0.0:
        pin_fn = example.facts.get("oracle_pin")
        if pin_fn is None:
            raise ConfigError(
                f"system '{cfg.system.name}' has no boundary-layer pin rule; "
                "set oracle.collar to 0"
            )
        mask, value = pin_fn(grid.points(), ocfg.collar)
        pin = (mask, value)
        include = ~mask
        collar_info = {
            "width": ocfg.collar,
            "pinned_value": value,
            "n_pinned": int(mask.sum()),
        }
        log.info("pinned %d boundary-layer nodes at %.3g", int(mask.sum()), value)

    report = _provenance(cfg, args.seed)
    report.update(
        {
            "kind": "oracle",
            "grid": {
                "lower": grid.lower.tolist(),
                "upper": grid.upper.tolist(),
                "spacing": grid.spacing,
            },
            "h": ocfg.h,
            "collar": collar_info,
        }
    )

    try:
        table = hjb_value_iteration(
            example.system,
            example.target,
            grid,
            ocfg.h,
            iter_tol=ocfg.iter_tol,
            max_sweeps=ocfg.max_sweeps,
            target_radius=ocfg.target_radius,
            pin=pin,
        )
    except NonConvergence as exc:
        report.update(
            {
                "passed": False,
                "converged": False,
                "sweeps": exc.sweeps,
                "last_change": exc.last_change,
                "iter_tol": exc.tol,
            }
        )
        _write_json(out / "oracle_report.json", report)
        log.error("value iteration did not converge: %s", exc)
        print(f"oracle: NO CONVERGENCE after {exc.sweeps} sweeps")
        return EXIT_NO_CONVERGENCE

    write_value_table_csv(out / "value_table.csv", table)

    comparison = compare_bound(
        table,
        example.mrf,
        oracle_tol=ocfg.oracle_tol,
        target=example.target,
        include=include,
    )
    passed = bool(comparison["passed"])

    analytic = None
    if "analytic_value" in example.facts:
        err, where = table.sup_error(example.facts["analytic_value"])
        analytic = {"sup_error": err, "at": [float(v) for v in np.atleast_1d(where)]}
        log.info("sup distance to the closed form: %.3g", err)

    report.update(
        {
            "passed": passed,
            "converged": True,
            "sweeps": table.sweeps,
            "last_change": table.last_change,
            "n_nodes": int(table.values.size),
            "n_resolved": int((table.values < RESOLVED).sum()),
            "bound_comparison": comparison,
            "analytic_comparison": analytic,
            "value_table_file": "value_table.csv",
        }
    )
    _write_json(out / "oracle_report.json", report)

    if passed:
        print(
            f"oracle: bound holds at every node "
            f"(worst gap {comparison['worst_gap']:g}, {comparison['n_checked']} checked)"
        )
    else:
        print(f"oracle: BOUND VIOLATED at {comparison['n_violations']} nodes")
    return EXIT_OK if passed else EXIT_FAILURE


# ----------------------------------------------------------------------
# report


_STAGE_FILES = (
    ("verify", "verify_report.json"),
    ("synthesis", "synthesis_report.json"),
    ("oracle", "oracle_report.json"),
)


def cmd_report(args) -> int:
    if not args.out:
        raise ConfigError("report needs --out pointing at a directory with stage reports")
    out = Path(args.out)
    if not out.is_dir():
        raise ConfigError(f"output directory not found: {out}")

    merged: dict = {"schema_version": SCHEMA_VERSION, "kind": "combined", "stages": {}}
    statuses = []
    payloads: dict = {}
    for stage, fname in _STAGE_FILES:
        payload = _read_stage(out / fname)
        if payload is None:
            continue
        merged["stages"][stage] = payload
        ok = bool(payload.get("passed", False))
        statuses.append((stage, ok))
        print(f"{stage}: {'ok' if ok else 'FAILED'}")
        payloads[fname] = payload

    if not statuses:
        raise ConfigError(f"no stage reports found in {out}")

    conflicts = _provenance_conflicts(payloads)
    for key, listed in conflicts.items():
        print(f"stage files differ in {key}: {listed}")

    merged["passed"] = not conflicts and all(ok for _, ok in statuses)
    _write_json(out / "report.json", merged)
    print(f"overall: {'ok' if merged['passed'] else 'FAILED'}")
    return EXIT_OK if merged["passed"] else EXIT_FAILURE


# ----------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exitcert",
        description="certify restraint functions, synthesize near-optimal "
        "trajectories, and cross-check them against a grid oracle",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-c", "--config", required=True, metavar="PATH",
                        help="YAML run configuration")
    common.add_argument("-o", "--out", metavar="DIR",
                        help="output directory (default: output.dir from the config)")
    common.add_argument("--seed", type=int, default=0, metavar="N",
                        help="seed to record in report provenance (default 0; no stage "
                        "draws random numbers)")
    common.add_argument("-v", "--verbose", action="count", default=0,
                        help="more stderr logging (-vv for debug)")

    p = sub.add_parser("verify", parents=[common],
                       help="check a candidate on its band and emit a certificate")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("synthesize", parents=[common],
                       help="run the constructive pipeline from configured states")
    p.add_argument("--force", action="store_true",
                   help="synthesize from a verify report that did not pass "
                   "(never from a missing one or one from another run)")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("oracle", parents=[common],
                       help="solve the grid dynamic program and compare the bound")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("report", help="merge stage reports into one tree")
    p.add_argument("-o", "--out", required=True, metavar="DIR",
                   help="directory holding the stage reports")
    p.add_argument("-v", "--verbose", action="count", default=0)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.INFO if args.verbose == 0 else logging.DEBUG
    logging.basicConfig(
        stream=sys.stderr, level=level, format="%(levelname).1s %(name)s: %(message)s"
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG
    except NonConvergence as exc:
        log.error("non-convergence: %s", exc)
        return EXIT_NO_CONVERGENCE
    except (PositiveDefinitenessViolation, FeedbackGap,
            StepCollapse, ModulusError, NegativeLagrangian, SingularDynamics) as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
