"""Experiment orchestration and file I/O.

Edge-list ingestion with sparse-id remapping, the estimator-comparison
grid (generate, shape, sample, aggregate), single-cell experiments, and
the CSV conventions shared by the CLI: floats at 12 significant digits,
one timestamped comment line on top, deterministic body for a fixed
config and seed.
"""

from __future__ import annotations

import io
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from . import graph as graphmod
from .cascade import SharingState, exposure_bits, true_exposure
from .estimators import (
    ConditionVerdict,
    condition_empirical,
    directed_estimates,
    exact_variance_fp,
    exact_variance_vanilla,
    fp_estimate,
    vanilla_estimate,
)
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
from .graph import (
    DiGraph,
    Graph,
    build_directed,
    build_undirected,
    random_walk_friends,
    sample_friend_two_step,
    sample_random_friends,
    sample_uniform_nodes,
)
from .rng import make_generator

UNDIRECTED_METHODS = ("vanilla", "fp", "fp-walk", "fp-two-step")
DIRECTED_METHODS = ("d-node", "d-friend", "d-follower")
WRITE_CHUNK_ROWS = 1 << 16  # edge-list rows formatted per write
_COMMENT_LINE = re.compile(rb"\n#[^\n]*")  # a '#' line with the newline before it
_NODE_ID = re.compile(r"-?[0-9]+")  # ASCII digits; a sign only to report negative ids
MAX_NODE_ID = 2**63 - 1
_LINE_BLANKS = " \t\n"  # text mode reads \r\n and a lone \r as \n
_FIELD_SEP = re.compile(r"[ \t]+")  # not str.split(), which also splits on Unicode spaces


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoadReport:
    """What the edge-list parser saw and did."""

    num_nodes: int
    num_edges: int
    num_edge_lines: int
    num_ignored_lines: int
    remapped: bool
    id_map: np.ndarray | None = None  # sorted original ids; dense id = index


def _parse_edge_lines(path: str):
    pairs = []
    ignored = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip(_LINE_BLANKS)
            if not line or line.startswith("#"):
                ignored += 1
                continue
            pairs.append(_node_ids(line, 2, path, lineno))
    return pairs, ignored


def _node_ids(line: str, count: int, path: str, lineno: int) -> list:
    """The ``count`` ids of a data line: ASCII digits, at most MAX_NODE_ID."""
    parts = _FIELD_SEP.split(line)
    if len(parts) != count or not all(_NODE_ID.fullmatch(p) for p in parts):
        expected = "two node ids" if count == 2 else "a node id"
        raise ValueError(f"{path}: line {lineno}: expected {expected}, got {line!r}")
    ids = [int(p) for p in parts]
    if min(ids) < 0:
        raise ValueError(f"{path}: line {lineno}: node ids must be non-negative")
    if max(ids) > MAX_NODE_ID:
        raise ValueError(f"{path}: line {lineno}: node id above {MAX_NODE_ID}")
    return ids


def _parse_plain_edge_file(path: str):
    """Bulk parse of a plain edge-list file; None when the file is not plain.

    Plain: valid UTF-8 without carriage returns; every comment line has
    its '#' in column 0; every other line holds only ASCII digits, spaces
    and tabs, with exactly two ids when it is not blank. Such a file parses
    to the same edges and line counts as _parse_edge_lines, which handles
    (and reports the errors of) every other file. Returns (edges, ignored).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        return None
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return None
    num_lines = data.count(b"\n") + (len(data) > 0 and not data.endswith(b"\n"))
    body = _COMMENT_LINE.sub(b"", b"\n" + data)
    if body.translate(None, b"0123456789 \t\n"):
        return None
    if body.isspace():  # blank lines only; body starts with the added newline
        edges = np.empty((0, 2), dtype=np.int64)
    else:
        try:
            edges = np.loadtxt(io.BytesIO(body), dtype=np.int64, comments=None, ndmin=2)
        except ValueError:  # a line without two ids, or an id beyond int64
            return None
        if edges.shape[1] != 2:
            return None
    return edges, num_lines - edges.shape[0]


def load_graph(path: str, directed: bool = False, mapping_path: str | None = None):
    """Load an edge-list file into a simplified Graph or DiGraph.

    One edge per line as two non-negative integers separated by spaces or tabs;
    lines starting with '#' (and blank lines) are ignored; undirected files
    may list an edge once in either orientation. Sparse ids are remapped to
    a dense 0..n-1 range and kept in the report's ``id_map``; the mapping
    is written to a file only when ``mapping_path`` is given. A plain file
    is parsed in one bulk pass, any other line by line; both give the same
    result and the line-wise parser raises every parse error.
    Returns (graph, LoadReport).
    """
    parsed = _parse_plain_edge_file(path)
    if parsed is None:
        pairs, ignored = _parse_edge_lines(path)
        edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    else:
        edges, ignored = parsed
    ids = graphmod.sorted_unique(edges)
    remapped = bool(ids.size) and not (
        ids.size == int(ids[-1]) + 1 and ids[0] == 0
    )
    if remapped:
        edges = np.searchsorted(ids, edges)
        num_nodes = ids.size
        if mapping_path is not None:
            with open(mapping_path, "w", encoding="utf-8") as fh:
                fh.write("# original_id remapped_id\n")
                _write_int_pairs(fh, np.stack([ids, np.arange(ids.size)], axis=1))
    else:
        num_nodes = int(ids[-1]) + 1 if ids.size else 0
    g = build_directed(edges, num_nodes) if directed else build_undirected(edges, num_nodes)
    report = LoadReport(
        num_nodes=num_nodes,
        num_edges=g.num_edges,
        num_edge_lines=edges.shape[0],
        num_ignored_lines=ignored,
        remapped=remapped,
        id_map=ids if remapped else None,
    )
    return g, report


def compact_nonisolated(g: Graph):
    """Drop isolated nodes, relabeling the rest densely.

    The edge-list format cannot represent isolated nodes, so graphs headed
    for a file round-trip are compacted first. Returns (graph, kept_ids).
    """
    kept = np.flatnonzero(g.degrees > 0)
    if kept.size == g.num_nodes:
        return g, kept
    dense = np.full(g.num_nodes, -1, dtype=np.int64)
    dense[kept] = np.arange(kept.size)
    return build_undirected(dense[g.edge_array], kept.size), kept


def _write_int_pairs(fh, pairs: np.ndarray) -> None:
    """'a b' lines, formatted WRITE_CHUNK_ROWS rows at a time to bound memory."""
    for start in range(0, pairs.shape[0], WRITE_CHUNK_ROWS):
        chunk = pairs[start : start + WRITE_CHUNK_ROWS]
        fh.write(("%d %d\n" * chunk.shape[0]) % tuple(chunk.ravel().tolist()))


def write_edge_list(path: str, g) -> None:
    """One edge per line; undirected edges written once as 'u v' with u <= v."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {'directed' if isinstance(g, DiGraph) else 'undirected'}"
                 f" nodes={g.num_nodes} edges={g.num_edges}\n")
        _write_int_pairs(fh, g.edge_array)


def read_sharers(path: str, num_nodes: int, id_map: np.ndarray | None = None) -> SharingState:
    """Sharer-list file: one node id per line, '#' comments allowed.

    Pass the LoadReport's ``id_map`` when the graph file's sparse ids were
    remapped, so sharer ids written in the original id space land on the
    right dense nodes.
    """
    sharers = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip(_LINE_BLANKS)
            if not line or line.startswith("#"):
                continue
            sharers.extend(_node_ids(line, 1, path, lineno))
    ids = np.array(sharers, dtype=np.int64)
    if id_map is not None and ids.size:
        pos = np.searchsorted(id_map, ids)
        bad = (pos >= id_map.size) | (id_map[np.minimum(pos, id_map.size - 1)] != ids)
        if bad.any():
            raise ValueError(f"{path}: sharer id {int(ids[bad][0])} does not appear in the graph file")
        ids = pos
    return SharingState.from_sharers(ids, num_nodes)


def write_sharers(path: str, s: SharingState) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# sharers={s.num_sharers} of nodes={s.num_nodes}\n")
        for v in s.sharers.tolist():
            fh.write(f"{v}\n")


# ---------------------------------------------------------------------------
# CSV conventions
# ---------------------------------------------------------------------------


def format_value(x) -> str:
    """CSV cell: floats at 12 significant digits, NaN/None as empty."""
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isnan(x):
            return ""
        return f"{x:.12g}"
    return str(x)


def write_csv(path: str, comment: str, header: list, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(x) for x in row) + "\n")


# ---------------------------------------------------------------------------
# Estimation methods
# ---------------------------------------------------------------------------


def _draw(method: str, g, n_samples: int, rng, walk_burn_in, walk_thin) -> np.ndarray:
    """One rep's n_samples samples for the named method, from its own generator."""
    if method == "vanilla":
        return sample_uniform_nodes(g, n_samples, rng)
    if method == "fp":
        return sample_random_friends(g, n_samples, rng)
    if method == "fp-two-step":
        return sample_friend_two_step(g, n_samples, rng)
    if method == "fp-walk":
        candidates = np.flatnonzero(g.degrees > 0)
        start = int(candidates[rng.integers(candidates.size)])
        return random_walk_friends(g, start, walk_burn_in, walk_thin, n_samples, rng)
    if method in DIRECTED_METHODS:
        return graphmod.sample_directed_many(g, method[2:], n_samples, rng)
    raise ValueError(f"unknown method: {method!r}")


def run_method(method: str, g, s: SharingState, n_samples: int, generators, d_bar: float | None = None,
               walk_burn_in: int | None = None, walk_thin: int | None = None) -> np.ndarray:
    """One estimate per generator by the named method, n_samples fresh samples each.

    Rep r draws its samples from ``generators[r]`` as a single estimate
    would; the estimator then runs once on the stacked (reps, n_samples)
    array. A generator passed again to a later call continues its stream.
    """
    samples = np.stack([_draw(method, g, n_samples, rng, walk_burn_in, walk_thin) for rng in generators])
    if method == "vanilla":
        return vanilla_estimate(exposure_bits(g, s, samples.ravel()).reshape(samples.shape)).estimate
    if method in DIRECTED_METHODS:
        return directed_estimates(g, method[2:], samples, s, d_bar).estimate
    return fp_estimate(g, samples, s, d_bar).estimate


def _check_methods(methods, directed: bool) -> None:
    if not methods:
        raise ValueError("need at least one method")
    allowed = DIRECTED_METHODS if directed else UNDIRECTED_METHODS
    for i, m in enumerate(methods):
        if m not in allowed:
            kind = "directed" if directed else "undirected"
            raise ValueError(f"method {m!r} not available on {kind} graphs (choose from {allowed})")
        if m in methods[:i]:
            raise ValueError(f"method {m!r} listed twice")


def _check_counts(n_samples: int, reps: int) -> None:
    if n_samples < 1:
        raise ValueError("need n_samples >= 1")
    if reps < 1:
        raise ValueError("need reps >= 1")


# ---------------------------------------------------------------------------
# Single-cell experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StaticResult:
    """Per-rep estimates for one (graph, sharing) pair, plus the analytics.

    ``warnings`` names each reason the rows are best-effort: a true
    exposure of 0, or a graph on which fp-walk's samples are biased.
    """

    rows: list  # (rep, method, estimate, abs_error, true_exposure)
    true_exposure: float
    verdict: ConditionVerdict | None
    var_vanilla_single: float | None
    var_fp_single: float | None
    warnings: tuple


def run_static_experiment(
    g,
    s: SharingState,
    methods,
    n_samples: int,
    reps: int,
    seed: int,
    d_bar: float | None = None,
    walk_burn_in: int | None = None,
    walk_thin: int | None = None,
) -> StaticResult:
    """reps independent estimates per method on a fixed (graph, sharing) pair.

    Rep r draws its samples from the (seed, 0, r) stream. The rep
    generators are made once and each method's run_method call continues
    them, so within a rep the methods draw in the listed order from one
    stream: adding a method changes later methods' draws, but rep streams
    stay independent. Rows are ordered by rep, then method. With fp-walk
    among the methods, the graph is checked once for the walk's
    preconditions; a failure is reported in ``warnings``.
    """
    directed = isinstance(g, DiGraph)
    _check_methods(methods, directed)
    _check_counts(n_samples, reps)
    f_bar = true_exposure(g, s)
    generators = [make_generator(seed, 0, rep) for rep in range(reps)]
    estimates = [run_method(m, g, s, n_samples, generators, d_bar, walk_burn_in, walk_thin).tolist()
                 for m in methods]
    rows = [(rep, m, est[rep], abs(est[rep] - f_bar), f_bar)
            for rep in range(reps) for m, est in zip(methods, estimates)]
    verdict = var_v = var_fp = None
    if not directed and g.num_edges >= 1:
        verdict = condition_empirical(g, s)
        var_v = exact_variance_vanilla(f_bar, 1)
        var_fp = exact_variance_fp(g, s, 1)
    warnings = graphmod.walk_precondition_failures(g) if "fp-walk" in methods else ()
    if f_bar == 0.0:
        warnings += ("true exposure is 0; percent errors are undefined",)
    return StaticResult(rows, f_bar, verdict, var_v, var_fp, warnings)


# ---------------------------------------------------------------------------
# The comparison grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridConfig:
    """One experiment grid: the cross product of the list-valued fields."""

    nodes: int = 2000
    alphas: tuple = (2.5,)
    k_min: int = 1
    k_max: int | None = None  # None: cap at nodes - 1; heavy hubs can block shaping
    rkk_targets: tuple = (None,)  # None: leave assortativity as generated
    rho_targets: tuple = (None,)  # None: leave sharing labels unswapped
    sharing_probs: tuple = (0.005, 0.01, 0.02, 0.05, 0.1)
    methods: tuple = ("vanilla", "fp")
    n_samples: int = 100
    reps: int = 1000
    seed: int = 0
    tolerance: float = 0.01
    max_iters: int = 100_000

    def cells(self):
        return list(itertools.product(self.alphas, self.rkk_targets, self.rho_targets, self.sharing_probs))


@dataclass(frozen=True)
class GridCell:
    """Aggregated result of one grid cell for one method."""

    cell_index: int
    alpha: float
    rkk_target: float | None
    rkk_achieved: float
    rho_target: float | None
    rho_achieved: float
    sharing_prob: float
    method: str
    n_samples: int
    reps: int
    true_exposure: float
    mean_abs_error: float | None
    mean_abs_error_pct: float | None
    std_error_pct: float | None
    shaping_missed: bool


GRID_HEADER = [
    "cell_index", "alpha", "rkk_target", "rkk_achieved", "rho_target", "rho_achieved",
    "sharing_prob", "method", "n_samples", "reps", "true_exposure",
    "mean_abs_error", "mean_abs_error_pct", "std_error_pct",
]

LEDGER_HEADER = [
    "cell_index", "alpha", "rkk_target", "rho_target", "sharing_prob",
    "method", "rep", "estimate", "abs_error", "true_exposure",
]


def build_cell(cfg: GridConfig, cell_index: int, alpha: float, rkk_target, rho_target, p: float):
    """Generate and shape one grid cell's graph and sharing state.

    Returns (graph, sharing, rkk_achieved, rho_achieved, missed) where
    ``missed`` flags a best-effort shaping stop beyond tolerance.
    """
    rng = make_generator(cfg.seed, cell_index)
    seq = powerlaw_degree_sequence(cfg.nodes, alpha, cfg.k_min, rng, k_max=cfg.k_max)
    g = configuration_model(seq, rng)
    missed = False
    if rkk_target is None:
        rkk_achieved = assortativity_coefficient(g)
    else:
        g, res = rewire_to_assortativity(g, CorrelationTarget(rkk_target, cfg.tolerance, cfg.max_iters), rng)
        rkk_achieved = res.achieved
        missed |= not res.converged
    s = bernoulli_sharing(g, p, rng)
    if rho_target is None or not 0 < s.num_sharers < g.num_nodes:
        rho_achieved = degree_sharing_correlation(g, s)
        missed |= rho_target is not None  # wanted shaping but the state is degenerate
    else:
        s, res = swap_to_correlation(g, s, CorrelationTarget(rho_target, cfg.tolerance, cfg.max_iters), rng)
        rho_achieved = res.achieved
        missed |= not res.converged
    return g, s, rkk_achieved, rho_achieved, missed


def run_grid(cfg: GridConfig, collect_ledger: bool = True):
    """Run every cell of the grid; returns (cells, ledger_rows, null_cells).

    Rep r of every method draws from a fresh (seed, cell, r) stream, so
    the methods of a cell see common random numbers. A cell whose sharing
    exposes nobody (true exposure 0) has no defined percent error: it
    yields no GridCell row and is reported in ``null_cells`` instead.
    Percent errors are 100 * |estimate - truth| / truth.
    """
    _check_methods(cfg.methods, directed=False)
    _check_counts(cfg.n_samples, cfg.reps)
    cells_out: list[GridCell] = []
    ledger: list[tuple] = []
    null_cells: list[tuple] = []
    for cell_index, (alpha, rkk_t, rho_t, p) in enumerate(cfg.cells()):
        g, s, rkk_a, rho_a, missed = build_cell(cfg, cell_index, alpha, rkk_t, rho_t, p)
        f_bar = true_exposure(g, s)
        if f_bar == 0.0:
            null_cells.append((cell_index, alpha, rkk_t, rho_t, p))
            continue
        for method in cfg.methods:
            generators = [make_generator(cfg.seed, cell_index, rep) for rep in range(cfg.reps)]
            estimates = run_method(method, g, s, cfg.n_samples, generators)
            errors = np.abs(estimates - f_bar)
            if collect_ledger:
                ledger += [(cell_index, alpha, rkk_t, rho_t, p, method, rep, est, err, f_bar)
                           for rep, (est, err) in enumerate(zip(estimates.tolist(), errors.tolist()))]
            pct = 100.0 * errors / f_bar
            cells_out.append(
                GridCell(
                    cell_index=cell_index,
                    alpha=alpha,
                    rkk_target=rkk_t,
                    rkk_achieved=rkk_a,
                    rho_target=rho_t,
                    rho_achieved=rho_a,
                    sharing_prob=p,
                    method=method,
                    n_samples=cfg.n_samples,
                    reps=cfg.reps,
                    true_exposure=f_bar,
                    mean_abs_error=float(errors.mean()),
                    mean_abs_error_pct=float(pct.mean()),
                    std_error_pct=float(pct.std(ddof=1) / math.sqrt(cfg.reps)) if cfg.reps > 1 else None,
                    shaping_missed=missed,
                )
            )
    return cells_out, ledger, null_cells


def grid_rows(cells: list) -> list:
    return [
        (
            c.cell_index, c.alpha, c.rkk_target, c.rkk_achieved, c.rho_target, c.rho_achieved,
            c.sharing_prob, c.method, c.n_samples, c.reps, c.true_exposure,
            c.mean_abs_error, c.mean_abs_error_pct, c.std_error_pct,
        )
        for c in cells
    ]


def aggregate_ledger(ledger: list) -> dict:
    """Recompute mean percent errors per (cell, method) from raw ledger rows.

    Cross-check hook: the aggregated CSV must match this to within float
    round-off on the same data.
    """
    groups: dict = {}
    for cell_index, _a, _rk, _rh, _p, method, _rep, _est, abs_err, f_bar in ledger:
        groups.setdefault((cell_index, method), []).append(100.0 * abs_err / f_bar)
    return {key: float(np.mean(vals)) for key, vals in groups.items()}


# ---------------------------------------------------------------------------
# Parsing the flat key = value config format
# ---------------------------------------------------------------------------

_GRID_LIST_KEYS = {
    "alphas": float,
    "rkk_targets": lambda s: None if s.lower() in ("none", "null") else float(s),
    "rho_targets": lambda s: None if s.lower() in ("none", "null") else float(s),
    "sharing_probs": float,
    "methods": str,
}
_GRID_SCALAR_KEYS = {
    "nodes": int,
    "k_min": int,
    "k_max": lambda s: None if s.lower() in ("none", "null") else int(s),
    "n_samples": int,
    "reps": int,
    "seed": int,
    "tolerance": float,
    "max_iters": int,
}


def parse_grid_config(path: str) -> GridConfig:
    """Flat config: one ``key = value`` per line, '#' comments, lists comma-separated."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip().lower()
            val = val.strip()
            if key in values:
                raise ValueError(f"{path}: line {lineno}: repeated key {key!r}")
            if key in _GRID_LIST_KEYS:
                conv = _GRID_LIST_KEYS[key]
                values[key] = tuple(conv(tok.strip()) for tok in val.split(",") if tok.strip())
            elif key in _GRID_SCALAR_KEYS:
                values[key] = _GRID_SCALAR_KEYS[key](val)
            else:
                raise ValueError(f"{path}: line {lineno}: unknown key {key!r}")
    return GridConfig(**values)
