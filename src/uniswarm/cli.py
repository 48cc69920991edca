"""Command-line front end.

Exit codes: 0 on success, 1 when a proof-inequality audit fails, 2 on a
configuration error, 3 on any other error (such as a swarm or a run too
large to allocate, or a campaign run that raised, once the campaign's
summary is written), each error reported in one line on stderr.  The
output directory is ``--out``, else the UNISWARM_OUT environment variable,
else (for ``run``) the config's ``outputs``, else a default under ``runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .conditions import check_corollary1, check_theorem1, check_theorem2, check_theorem3
from .harness import (ConfigError, RunConfig, campaign, load_trajectory, run,
                      scenario_fig3)
from .metrics import FAIL, geometric_envelope_audit, recursion_audit

EXIT_OK, EXIT_AUDIT_FAIL, EXIT_CONFIG, EXIT_ERROR = 0, 1, 2, 3


def _out_dir(arg: str | None, default: str) -> Path:
    env = os.environ.get("UNISWARM_OUT")
    return Path(arg or env or default)


def _parse_seeds(spec: str) -> list[int]:
    """Seed spec: 'A..B' (inclusive range), 'a,b,c', or a count N (0..N-1)."""
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    if "," in spec:
        return [int(s) for s in spec.split(",")]
    return list(range(int(spec)))


def _validated(config: RunConfig) -> RunConfig:
    """``config`` with its command-line overrides, checked as a config file
    is: a bad value is a ConfigError."""
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


def _cmd_run(args) -> int:
    config = RunConfig.from_json(args.config)
    if args.seed is not None:
        config.seed = args.seed
        _validated(config)
    out = _out_dir(args.out, config.outputs or "runs/run")
    result = run(config, out_dir=out)
    print(f"run complete: {config.steps} steps, seed {config.seed}, outputs in {out}")
    if result.recursion is not None:
        print(f"recursion audit: {result.recursion.fail_count} failures")
    if result.envelope is not None:
        print(f"envelope audit: {result.envelope.verdict}")
    return EXIT_AUDIT_FAIL if result.audit_failed else EXIT_OK


def _cmd_campaign(args) -> int:
    config = RunConfig.from_json(args.config)
    try:
        seeds = _parse_seeds(args.seeds)
    except ValueError:
        print(f"config error: cannot parse seed spec {args.seeds!r}", file=sys.stderr)
        return EXIT_CONFIG
    if not seeds:
        print(f"config error: seed spec {args.seeds!r} names no seeds", file=sys.stderr)
        return EXIT_CONFIG
    for seed in seeds:
        _validated(replace(config, seed=seed))
    out = _out_dir(args.out, "runs/campaign")
    summary = campaign(config, seeds, out_dir=out)
    print(f"campaign: {len(summary.per_run)} runs, sync fraction {summary.sync_fraction:.3f}, "
          f"connectivity fraction {summary.connectivity_fraction:.3f}")
    if summary.errors:
        print(f"{len(summary.errors)} runs errored", file=sys.stderr)
        return EXIT_ERROR
    fails = summary.audit_verdicts["recursion_fail"] + summary.audit_verdicts["envelope_fail"]
    return EXIT_AUDIT_FAIL if fails else EXIT_OK


def _cmd_check(args) -> int:
    config = RunConfig.from_json(args.config)
    params = config.params
    reports = [check_theorem1(params), check_corollary1(params)]
    if params.leader_count > 0:
        reports.append(check_theorem2(params, reference_heading=config.reference_heading))
        if config.schedule is not None:
            reports.append(check_theorem3(params, config.schedule))
    print(json.dumps([r.to_dict() for r in reports], indent=1))
    return EXIT_OK


def _cmd_scenario(args) -> int:
    if args.name != "fig3":
        print(f"unknown scenario {args.name!r}; available: fig3", file=sys.stderr)
        return EXIT_CONFIG
    config = _validated(scenario_fig3(seed=args.seed, steps=args.steps))
    out = _out_dir(args.out, "runs/fig3")
    result = run(config, out_dir=out)
    print(f"scenario fig3: switches at {result.trajectory.switch_log}, outputs in {out}")
    return EXIT_AUDIT_FAIL if result.audit_failed else EXIT_OK


def _cmd_audit(args) -> int:
    if args.substeps < 1:  # before the stored run is loaded and checked
        raise ConfigError(f"--substeps must be >= 1, got {args.substeps}")
    traj = load_trajectory(args.traj)
    recursion = recursion_audit(traj, substep_count=args.substeps)
    report = {"recursion_fail_count": recursion.fail_count}
    # the stored reference stream is reconstructible only for constant
    # references; the envelope audit skips itself otherwise
    envelope = geometric_envelope_audit(traj)
    report["envelope_verdict"] = envelope.verdict
    print(json.dumps(report, indent=1))
    failed = recursion.fail_count > 0 or envelope.verdict == FAIL
    return EXIT_AUDIT_FAIL if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uniswarm",
                                     description="sampled-data unicycle swarm simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one seeded run from a JSON config")
    p_run.add_argument("--config", required=True, help="path to a JSON run config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_camp = sub.add_parser("campaign", help="run a config over a seed set and aggregate")
    p_camp.add_argument("--config", required=True)
    p_camp.add_argument("--seeds", default="20",
                        help="'A..B' inclusive range, comma list, or count N (default 20)")
    p_camp.add_argument("--out", default=None)
    p_camp.set_defaults(func=_cmd_campaign)

    p_check = sub.add_parser("check", help="evaluate parameter-bound conditions as JSON")
    p_check.add_argument("--config", required=True)
    p_check.set_defaults(func=_cmd_check)

    p_scen = sub.add_parser("scenario", help="run a named built-in scenario")
    p_scen.add_argument("name")
    p_scen.add_argument("--seed", type=int, default=0)
    p_scen.add_argument("--steps", type=int, default=3000)
    p_scen.add_argument("--out", default=None)
    p_scen.set_defaults(func=_cmd_scenario)

    p_audit = sub.add_parser("audit", help="re-run proof-inequality audits on stored outputs")
    p_audit.add_argument("--traj", required=True,
                         help="directory containing trajectory.csv and run_meta.json")
    p_audit.add_argument("--substeps", type=int, default=16)
    p_audit.set_defaults(func=_cmd_audit)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # exit 1 is kept for a failed audit
        print(f"error: {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
