"""Command-line interface: exposure-lab {generate|estimate|grid|track|analyze}.

Exit codes: 0 success, 2 input error, 3 warning (best-effort shaping
stopped beyond tolerance, a zero-exposure cell made percent errors
undefined, or fp-walk ran on a graph where its samples are biased).
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone

import numpy as np

from . import harness
from .cascade import true_exposure
from .estimators import condition_empirical, exact_variance_fp, exact_variance_vanilla
from .genmodel import (
    CorrelationTarget,
    assortativity_coefficient,
    bernoulli_sharing,
    configuration_model,
    degree_sharing_correlation,
    powerlaw_degree_sequence,
    rewire_to_assortativity,
    swap_to_correlation,
)
from .graph import average_degree
from .rng import make_generator
from .tracking import StepPolicy, run_tracking_experiment

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_WARNING = 3


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
    p.add_argument("--kmin", type=int, default=1)
    p.add_argument("--kmax", type=int, default=None,
                   help="degree cap (default nodes-1); a structural cutoff helps shaping succeed")
    p.add_argument("--assortativity", type=float, default=None, help="target assortativity (omit to skip rewiring)")
    p.add_argument("--sharing-prob", type=float, default=None)
    p.add_argument("--degree-sharing-corr", type=float, default=None,
                   help="target degree-sharing correlation (needs --sharing-prob)")
    p.add_argument("--tolerance", type=float, default=0.01)
    p.add_argument("--max-iters", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-sharers", default=None)

    p = sub.add_parser("estimate", help="repeated exposure estimates on a fixed graph and sharer list")
    p.add_argument("--graph", required=True)
    p.add_argument("--directed", action="store_true")
    p.add_argument("--sharers", required=True)
    p.add_argument("--method", required=True,
                   help="comma-separated: vanilla|fp|fp-walk|fp-two-step|d-node|d-friend|d-follower")
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
    p.add_argument("--alpha", type=float, default=2.5)
    p.add_argument("--kmin", type=int, default=1)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--assortativity", type=float, default=None)
    p.add_argument("--tolerance", type=float, default=0.01)
    p.add_argument("--max-iters", type=int, default=100_000)
    p.add_argument("--model", choices=("icm", "ltm"), required=True)
    p.add_argument("--p-inf", type=float, default=0.05)
    p.add_argument("--theta", type=float, default=0.05)
    p.add_argument("--icm-retry", action="store_true",
                   help="re-attempt variant: every sharer retries each step")
    p.add_argument("--ltm-strict", action="store_true",
                   help="activate only when the sharing fraction strictly exceeds theta")
    p.add_argument("--seeds-count", type=int, default=10)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--updates-per-step", type=int, default=100)
    p.add_argument("--policy", choices=("decreasing", "constant"), default="constant")
    p.add_argument("--epsilon", type=float, default=0.01)
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


def _cmd_generate(args) -> int:
    rng = make_generator(args.seed)
    seq = powerlaw_degree_sequence(args.nodes, args.alpha, args.kmin, rng, k_max=args.kmax)
    g = configuration_model(seq, rng)
    # edge-list files cannot carry isolated nodes (simplification can strand
    # a degree-1 node), so compact before shaping to keep the two output
    # files consistent on reload
    g, kept = harness.compact_nonisolated(g)
    if kept.size < args.nodes:
        print(f"note: dropped {args.nodes - kept.size} isolated node(s) left by simplification")
    missed = False
    if args.assortativity is not None:
        g, res = rewire_to_assortativity(
            g, CorrelationTarget(args.assortativity, args.tolerance, args.max_iters), rng)
        missed |= not res.converged
        print(f"assortativity: target={args.assortativity} achieved={res.achieved:.6f} "
              f"iterations={res.iterations} converged={res.converged}")
    else:
        print(f"assortativity: achieved={assortativity_coefficient(g):.6f} (unshaped)")
    harness.write_edge_list(args.out_graph, g)
    print(f"graph: nodes={g.num_nodes} edges={g.num_edges} avg_degree={average_degree(g):.4f} -> {args.out_graph}")
    if args.degree_sharing_corr is not None and args.sharing_prob is None:
        raise ValueError("--degree-sharing-corr requires --sharing-prob")
    if args.sharing_prob is not None:
        s = bernoulli_sharing(g, args.sharing_prob, rng)
        if args.degree_sharing_corr is not None:
            if 0 < s.num_sharers < g.num_nodes:
                s, res = swap_to_correlation(
                    g, s, CorrelationTarget(args.degree_sharing_corr, args.tolerance, args.max_iters), rng)
                missed |= not res.converged
                print(f"degree-sharing correlation: target={args.degree_sharing_corr} "
                      f"achieved={res.achieved:.6f} iterations={res.iterations} converged={res.converged}")
            else:
                missed = True
                print("degree-sharing correlation: degenerate sharer set, swapping skipped")
        if args.out_sharers:
            harness.write_sharers(args.out_sharers, s)
            print(f"sharers: count={s.num_sharers} -> {args.out_sharers}")
    elif args.out_sharers:
        raise ValueError("--out-sharers requires --sharing-prob")
    return EXIT_WARNING if missed else EXIT_OK


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
    missed = [c for c in cells if c.shaping_missed]
    for cell in missed[:5]:
        print(f"warning: cell {cell.cell_index} shaping stopped beyond tolerance "
              f"(rkk {cell.rkk_target}->{cell.rkk_achieved:.4f}, rho {cell.rho_target}->{cell.rho_achieved:.4f})",
              file=sys.stderr)
    for cell in null_cells:
        print(f"warning: cell {cell[0]} has zero true exposure (alpha={cell[1]}, p={cell[4]}); recorded as null",
              file=sys.stderr)
    return EXIT_WARNING if missed or null_cells else EXIT_OK


def _cmd_track(args) -> int:
    missed = False
    rng = make_generator(args.seed)
    if args.graph is not None:
        g, _ = _load_graph(args.graph)
    else:
        seq = powerlaw_degree_sequence(args.nodes, args.alpha, args.kmin, rng, k_max=args.kmax)
        g = configuration_model(seq, rng)
        if args.assortativity is not None:
            g, res = rewire_to_assortativity(
                g, CorrelationTarget(args.assortativity, args.tolerance, args.max_iters), rng)
            missed |= not res.converged
            print(f"assortativity: target={args.assortativity} achieved={res.achieved:.6f}")
    policy = StepPolicy(args.policy, args.epsilon)
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
    rows = [
        (r.step, r.true_exposure, r.vanilla_estimate, r.fp_estimate,
         r.vanilla_abs_error, r.fp_abs_error, r.degree_sharing_corr)
        for r in records
    ]
    harness.write_csv(args.out, _stamp("track", f"model={args.model} seed={args.seed}"), header, rows)
    if records:
        v_err = float(np.mean([r.vanilla_abs_error for r in records]))
        f_err = float(np.mean([r.fp_abs_error for r in records]))
        print(f"tracked {len(records)} steps: mean_abs_err vanilla={v_err:.6g} fp={f_err:.6g} -> {args.out}")
    return EXIT_WARNING if missed else EXIT_OK


def _cmd_analyze(args) -> int:
    g, report = _load_graph(args.graph)
    s = harness.read_sharers(args.sharers, g.num_nodes, id_map=report.id_map)
    f_bar = true_exposure(g, s)
    verdict = condition_empirical(g, s)
    print(f"nodes: {g.num_nodes}")
    print(f"edges: {g.num_edges}")
    print(f"average_degree: {harness.format_value(average_degree(g))}")
    print(f"sharers: {s.num_sharers}")
    print(f"true_exposure: {harness.format_value(f_bar)}")
    rho = degree_sharing_correlation(g, s)
    print(f"degree_sharing_corr: {harness.format_value(rho) or 'undefined'}")
    rkk = assortativity_coefficient(g)
    print(f"assortativity: {harness.format_value(rkk) or 'undefined'}")
    print(f"var_vanilla_single_sample: {harness.format_value(exact_variance_vanilla(f_bar, 1))}")
    print(f"var_fp_single_sample: {harness.format_value(exact_variance_fp(g, s, 1))}")
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
