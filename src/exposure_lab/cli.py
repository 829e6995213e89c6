"""Command-line interface: exposure-lab {generate|estimate|grid|track|analyze}.

Exit codes: 0 success, 2 input error, 3 warning (best-effort shaping
stopped beyond tolerance, a zero-exposure cell made percent errors
undefined, fp-walk ran on a graph or grid cell where its samples are
biased, or d-friend ran on a digraph with exposed nodes of out-degree 0,
which it never draws).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from datetime import datetime, timezone

import numpy as np

from . import cascade, genmodel, harness, tracking
from .estimators import condition_empirical, exact_variance_vanilla
from .genmodel import (
    assortativity_coefficient,
    configuration_model,
    degree_sharing_correlation,
    powerlaw_degree_sequence,
    shape_network,
    shaping_targets,
)
from .graph import average_degree
from .rng import make_generator
from .tracking import StepPolicy, run_tracking_experiment

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_WARNING = 3

# track's flags that apply under one condition only: flag -> (where it applies, its test on the parsed
# arguments, default); argparse.SUPPRESS keeps an omitted one out, so a given one can be refused
_ICM = ("with --model icm", lambda args: args.model == "icm")
_LTM = ("with --model ltm", lambda args: args.model == "ltm")
_CONSTANT = ("with --policy constant", lambda args: args.policy == "constant")
_NODES = ("to a network generated with --nodes, not to --graph", lambda args: args.graph is None)
_TRACK_FLAGS = {
    "p_inf": (*_ICM, cascade.DEFAULT_INFECTION_PROB), "icm_retry": (*_ICM, False),
    "theta": (*_LTM, cascade.DEFAULT_LTM_THRESHOLD), "ltm_strict": (*_LTM, False),
    "epsilon": (*_CONSTANT, tracking.DEFAULT_STEP_SIZE),
    "alpha": (*_NODES, 2.5), "kmin": (*_NODES, 1), "kmax": (*_NODES, None), "assortativity": (*_NODES, None),
    "tolerance": (*_NODES, genmodel.DEFAULT_TOLERANCE), "max_iters": (*_NODES, genmodel.DEFAULT_MAX_ITERS),
}


def _stamp(subcommand: str, args_text: str) -> str:
    now = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    return f"exposure-lab {subcommand} {args_text} generated={now}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="exposure-lab",
                                     description="Estimate network exposure to shared information from node samples.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a shaped power-law network and sharing labels")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--kmin", type=int, default=1,
                   help="power-law scale: degrees are at least kmin+1, unless --kmax caps them at kmin")
    p.add_argument("--kmax", type=int, default=None,
                   help="degree cap (default nodes-1); a structural cutoff helps shaping succeed")
    p.add_argument("--assortativity", type=float, default=None, help="target assortativity (omit to skip rewiring)")
    p.add_argument("--sharing-prob", type=float, default=None)
    p.add_argument("--degree-sharing-corr", type=float, default=None,
                   help="target degree-sharing correlation (needs --sharing-prob)")
    p.add_argument("--tolerance", type=float, default=genmodel.DEFAULT_TOLERANCE)
    p.add_argument("--max-iters", type=int, default=genmodel.DEFAULT_MAX_ITERS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-sharers", default=None)

    p = sub.add_parser("estimate", help="repeated exposure estimates on a fixed graph and sharer list")
    p.add_argument("--graph", required=True)
    p.add_argument("--directed", action="store_true")
    p.add_argument("--sharers", required=True)
    p.add_argument("--method", required=True, help="comma-separated: " + "|".join(harness.METHODS))
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dbar-override", type=float, default=None)
    p.add_argument("--walk-burn-in", type=int, default=None)
    p.add_argument("--walk-thin", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("grid", help="run an estimator-comparison grid from a config file")
    p.add_argument("--config", required=True, help="flat 'key = value' file; see README")
    p.add_argument("--out", required=True)
    p.add_argument("--ledger-out", default=None, help="per-rep raw estimates CSV")

    p = sub.add_parser("track", help="track a live cascade with both stochastic-approximation trackers")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph")
    src.add_argument("--nodes", type=int)
    net = p.add_argument_group("network recipe (with --nodes only)", argument_default=argparse.SUPPRESS)
    net.add_argument("--alpha", type=float)
    net.add_argument("--kmin", type=int)
    net.add_argument("--kmax", type=int)
    net.add_argument("--assortativity", type=float)
    net.add_argument("--tolerance", type=float)
    net.add_argument("--max-iters", type=int)
    p.add_argument("--model", choices=("icm", "ltm"), required=True)
    p.add_argument("--p-inf", type=float, default=argparse.SUPPRESS,
                   help=f"ICM infection probability (default {cascade.DEFAULT_INFECTION_PROB})")
    p.add_argument("--theta", type=float, default=argparse.SUPPRESS,
                   help=f"LTM threshold (default {cascade.DEFAULT_LTM_THRESHOLD})")
    p.add_argument("--icm-retry", action="store_true", default=argparse.SUPPRESS,
                   help="re-attempt variant: every sharer retries each step")
    p.add_argument("--ltm-strict", action="store_true", default=argparse.SUPPRESS,
                   help="activate only when the sharing fraction strictly exceeds theta")
    p.add_argument("--seeds-count", type=int, default=cascade.DEFAULT_SEED_COUNT)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--updates-per-step", type=int, default=tracking.DEFAULT_UPDATES_PER_STEP)
    p.add_argument("--policy", choices=("decreasing", "constant"), default="constant")
    p.add_argument("--epsilon", type=float, default=argparse.SUPPRESS,
                   help=f"constant step size (default {tracking.DEFAULT_STEP_SIZE})")
    p.add_argument("--initial-estimate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("analyze", help="exact variance comparison for a (graph, sharers) pair")
    p.add_argument("--graph", required=True)
    p.add_argument("--sharers", required=True)

    return parser


def _load_graph(path: str, directed: bool = False):
    g, report = harness.load_graph(path, directed=directed)
    if report.remapped:
        print(f"note: sparse node ids remapped to 0..{g.num_nodes - 1}", file=sys.stderr)
    return g, report


def _shaped_network(args, rng, compact: bool, sharing_prob=None, rho_target=None):
    """genmodel.shape_network on a network drawn from the generation flags, every input checked first."""
    shaping = (args.assortativity, sharing_prob, rho_target, args.tolerance, args.max_iters)
    shaping_targets(*shaping)
    seq = powerlaw_degree_sequence(args.nodes, args.alpha, args.kmin, rng, k_max=args.kmax)
    g = configuration_model(seq, rng)
    # edge-list files cannot carry isolated nodes (simplification can strand
    # a degree-1 node), so compact before shaping to keep the two output
    # files consistent on reload
    if compact:
        g, kept = harness.compact_nonisolated(g)
        if kept.size < args.nodes:
            print(f"note: dropped {args.nodes - kept.size} isolated node(s) left by simplification")
    g, s, rkk, rho = shape_network(g, rng, *shaping)
    if args.assortativity is None:
        print(f"assortativity: achieved={rkk.achieved:.6f} (unshaped)")
    else:
        print(f"assortativity: target={args.assortativity} achieved={rkk.achieved:.6f} "
              f"iterations={rkk.iterations} converged={rkk.converged} stop={rkk.stop}")
    return g, s, rkk, rho


def _cmd_generate(args) -> int:
    if args.out_sharers and args.sharing_prob is None:
        raise ValueError("--out-sharers requires --sharing-prob")
    g, s, rkk, rho = _shaped_network(args, make_generator(args.seed), compact=True,
                                     sharing_prob=args.sharing_prob, rho_target=args.degree_sharing_corr)
    harness.write_edge_list(args.out_graph, g)
    print(f"graph: nodes={g.num_nodes} edges={g.num_edges} avg_degree={average_degree(g):.4f} -> {args.out_graph}")
    if args.degree_sharing_corr is not None:
        if 0 < s.num_sharers < g.num_nodes:
            print(f"degree-sharing correlation: target={args.degree_sharing_corr} "
                  f"achieved={rho.achieved:.6f} iterations={rho.iterations} converged={rho.converged} "
                  f"stop={rho.stop}")
        else:
            print("degree-sharing correlation: degenerate sharer set, swapping skipped")
    if args.out_sharers:
        harness.write_sharers(args.out_sharers, s)
        print(f"sharers: count={s.num_sharers} -> {args.out_sharers}")
    return EXIT_OK if rkk.converged and rho.converged else EXIT_WARNING


def _cmd_estimate(args) -> int:
    g, report = _load_graph(args.graph, directed=args.directed)
    s = harness.read_sharers(args.sharers, g.num_nodes, id_map=report.id_map)
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    result = harness.run_static_experiment(
        g, s, methods, args.samples, args.reps, args.seed,
        d_bar=args.dbar_override, walk_burn_in=args.walk_burn_in, walk_thin=args.walk_thin)
    header = ["rep", "method", "estimate", "abs_error", "true_exposure"]
    harness.write_csv(args.out, _stamp("estimate", f"seed={args.seed}"), header, result.rows)
    print(f"true_exposure={harness.format_value(result.true_exposure)} rows={len(result.rows)} -> {args.out}")
    if result.verdict is not None:
        pref = "fp" if result.verdict.fp_preferred else "vanilla"
        print(f"condition: lhs={result.verdict.lhs_value:.6g} preferred={pref} tie={result.verdict.tie}")
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return EXIT_WARNING if result.warnings else EXIT_OK


def _cmd_grid(args) -> int:
    cfg = harness.parse_grid_config(args.config)
    cells, ledger, null_cells = harness.run_grid(cfg, collect_ledger=args.ledger_out is not None)
    harness.write_csv(args.out, _stamp("grid", f"config={args.config} seed={cfg.seed}"),
                      harness.GRID_HEADER, harness.grid_rows(cells))
    print(f"grid: {len(cells)} rows ({len(null_cells)} null cells) -> {args.out}")
    if args.ledger_out:
        harness.write_csv(args.ledger_out, _stamp("grid-ledger", f"config={args.config} seed={cfg.seed}"),
                          harness.LEDGER_HEADER, ledger)
        print(f"ledger: {len(ledger)} rows -> {args.ledger_out}")
    per_cell = {c.cell_index: c for c in cells}.values()  # one row per cell: its rows share the flags
    missed = sorted([(c.cell_index, c.rkk_target, c.rkk_achieved, c.rho_target, c.rho_achieved, c.shaping_stops)
                     for c in per_cell if c.shaping_missed]
                    + [(i, *shaping, stops) for i, _, *shaping, _, miss, stops in null_cells if miss])
    for cell, rkk_t, rkk_a, rho_t, rho_a, (rkk_stop, rho_stop) in missed:
        print(f"warning: cell {cell} shaping stopped beyond tolerance (rkk {rkk_t}->{rkk_a:.4f} stop={rkk_stop}, "
              f"rho {rho_t}->{rho_a:.4f} stop={rho_stop})", file=sys.stderr)
    biased = [c for c in per_cell if c.walk_failures]
    for cell in biased:
        for failure in cell.walk_failures:
            print(f"warning: cell {cell.cell_index}: {failure}", file=sys.stderr)
    for cell in null_cells:
        print(f"warning: cell {cell[0]} has zero true exposure (alpha={cell[1]}, p={cell[6]}); recorded as null",
              file=sys.stderr)
    return EXIT_WARNING if missed or biased or null_cells else EXIT_OK


def _cmd_track(args) -> int:
    for flag, (where, applies, default) in _TRACK_FLAGS.items():
        if flag not in vars(args):
            setattr(args, flag, default)
        elif not applies(args):
            raise ValueError(f"--{flag.replace('_', '-')} applies only {where}")
    policy = StepPolicy(args.policy, args.epsilon)
    # the run's own inputs, checked before a network is loaded or shaped; the
    # seed count's upper bound only with --nodes, since a --graph file's size is unknown here
    tracking._check_schedule(args.updates_per_step)
    tracking.make_tracker("vanilla", policy, args.initial_estimate)  # a start that is not finite raises
    cascade._check_cascade_inputs(args.model, args.steps, args.p_inf, args.theta, args.seeds_count, args.nodes)
    rng = make_generator(args.seed)
    missed = False
    if args.graph is not None:
        g, _ = _load_graph(args.graph)
    else:
        g, _, rkk, _ = _shaped_network(args, rng, compact=False)
        missed = not rkk.converged
    records = run_tracking_experiment(
        g,
        model=args.model,
        steps=args.steps,
        schedule=args.updates_per_step,
        vanilla_policy=policy,
        fp_policy=policy,
        seed_count=args.seeds_count,
        p_inf=args.p_inf,
        theta=args.theta,
        rng=rng,
        initial_estimate=args.initial_estimate,
        icm_retry=args.icm_retry,
        ltm_strict=args.ltm_strict,
    )
    header = ["step", "true_exposure", "vanilla_est", "fp_est",
              "vanilla_abs_err", "fp_abs_err", "degree_sharing_corr"]
    harness.write_csv(args.out, _stamp("track", f"model={args.model} seed={args.seed}"), header,
                      [dataclasses.astuple(r) for r in records])
    if records:
        v_err = float(np.mean([r.vanilla_abs_error for r in records]))
        f_err = float(np.mean([r.fp_abs_error for r in records]))
        print(f"tracked {len(records)} steps: mean_abs_err vanilla={v_err:.6g} fp={f_err:.6g} -> {args.out}")
    return EXIT_WARNING if missed else EXIT_OK


def _cmd_analyze(args) -> int:
    g, report = _load_graph(args.graph)
    s = harness.read_sharers(args.sharers, g.num_nodes, id_map=report.id_map)
    verdict = condition_empirical(g, s)
    print(f"nodes: {g.num_nodes}")
    print(f"edges: {g.num_edges}")
    print(f"average_degree: {harness.format_value(average_degree(g))}")
    print(f"sharers: {s.num_sharers}")
    print(f"true_exposure: {harness.format_value(verdict.f_bar)}")
    rho = degree_sharing_correlation(g, s)
    print(f"degree_sharing_corr: {harness.format_value(rho) or 'undefined'}")
    rkk = assortativity_coefficient(g)
    print(f"assortativity: {harness.format_value(rkk) or 'undefined'}")
    print(f"var_vanilla_single_sample: {harness.format_value(exact_variance_vanilla(verdict.f_bar, 1))}")
    print(f"var_fp_single_sample: {harness.format_value(verdict.fp_moment - verdict.f_bar * verdict.f_bar)}")
    print(f"condition_lhs: {harness.format_value(verdict.lhs_value)}")
    print(f"fp_preferred: {verdict.fp_preferred}")
    print(f"tie: {verdict.tie}")
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "estimate": _cmd_estimate,
    "grid": _cmd_grid,
    "track": _cmd_track,
    "analyze": _cmd_analyze,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
