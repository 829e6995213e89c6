"""Experiment orchestration and file I/O.

Edge-list ingestion with sparse-id remapping, the estimator-comparison
grid (generate, shape, sample, aggregate), single-cell experiments, and
the CSV conventions shared by the CLI: floats at 12 significant digits,
one timestamped comment line on top, deterministic body for a fixed
config and seed.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, fields

import numpy as np

from . import graph as graphmod
from .cascade import SharingState, exposure_all
from .estimators import ConditionVerdict, _check_d_bar, _exposure_moments, estimate_from_bits
from .genmodel import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOLERANCE,
    configuration_model,
    powerlaw_cap,
    powerlaw_degree_sequence,
    shape_network,
    shaping_targets,
)
from .graph import (
    DiGraph,
    Graph,
    random_walk_friends,
    sample_friend_two_step,
    sample_random_friends,
    sample_uniform_nodes,
)
from .rng import make_generator

# each estimation method's sampling mode (``estimate_from_bits``); a method's place here fixes its stream
_METHOD_MODES = {"vanilla": "node", "fp": "fp", "fp-walk": "fp", "fp-two-step": "fp",
                 "d-node": "node", "d-friend": "friend", "d-follower": "follower"}
METHODS = tuple(_METHOD_MODES)
DIRECTED_METHODS = tuple(m for m in METHODS if m.startswith("d-"))
UNDIRECTED_METHODS = tuple(m for m in METHODS if m not in DIRECTED_METHODS)
WRITE_CHUNK_ROWS = 1 << 16  # id-file rows formatted per write
CSV_CHUNK_ROWS = 1 << 8  # CSV rows formatted per write; 1024 raised peak RSS by ~0.6 MiB on a 4.8k-row grid ledger
_PARSE_BLOCK_BYTES = 1 << 18  # bytes per block of the id-file digit parse; 1 MiB took a load's traced peak 2.0x -> 2.8x
_ZERO, _NINE, _TAB, _SPACE, _LF = b"09\t \n"
_NODE_ID = re.compile(r"-?[0-9]+")  # ASCII digits; a sign only to report negative ids
MAX_NODE_ID = 2**63 - 1
_MAX_DIGITS = len(str(MAX_NODE_ID))  # 19, all below 2**64
_LINE_BLANKS = " \t\n"  # text mode reads \r\n and a lone \r as \n
_FIELD_SEP = re.compile(r"[ \t]+")  # not str.split(), which also splits on Unicode spaces
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")  # how errors="surrogateescape" reads a byte that is not UTF-8


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


def _read_ids(path: str, count: int):
    """The id rows of an edge file (``count`` 2) or a sharer file (``count`` 1).

    The file is read once, as bytes, and checked: strict UTF-8 (decoded
    only when some byte is not ASCII), CRLF and a lone CR read as LF, and
    the lines whose first non-blank character is '#' dropped with their LF;
    its lines are counted, and ``_parse_ids`` parses the lines left. A file
    that fails is scanned line by line, only to raise its first bad line's
    error. Returns (ids of shape (rows, count), number of blank and comment
    lines).
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        if not data.isascii():
            data.decode("utf-8")  # strict: its UnicodeDecodeError is a ValueError
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        num_lines = _count_newlines(data) + (len(data) > 0 and not data.endswith(b"\n"))
        spans, comment_lines = _data_spans(data)
        ids = _parse_ids(data, spans, num_lines - comment_lines, count)
    except ValueError:  # invalid UTF-8, a '#' after data, or a line the digit parse refuses
        _raise_first_bad_line(path, count)
    return ids, num_lines - ids.shape[0]


def _count_newlines(data: bytes) -> int:
    """The LFs of ``data``, counted by numpy _PARSE_BLOCK_BYTES at a time (~4x faster than bytes.count)."""
    return sum(int(np.count_nonzero(np.frombuffer(data, dtype=np.uint8, offset=at,
                                                  count=min(_PARSE_BLOCK_BYTES, len(data) - at)) == _LF))
               for at in range(0, len(data), _PARSE_BLOCK_BYTES))


def _data_spans(data: bytes) -> tuple:
    """(the (start, end) byte spans of ``data`` left once each line whose first non-blank
    character is '#' is dropped with its LF, the number of lines so dropped); a '#' after
    data raises ValueError."""
    spans = []
    dropped = 0
    start = 0
    at = data.find(b"#")
    while at >= 0:
        line = data.rfind(b"\n", 0, at) + 1
        if data[line:at].strip(b" \t"):
            raise ValueError("'#' after data")
        spans.append((start, line))
        end = data.find(b"\n", at) + 1
        dropped += 1
        start = end or len(data)
        at = data.find(b"#", start)
    spans.append((start, len(data)))
    return [(start, end) for start, end in spans if end > start], dropped


def _parse_ids(data: bytes, spans: list, lines: int, count: int):
    """The ids of the ``spans`` of ``data``, which hold at most ``lines`` lines, each blank or
    ``count`` ids of ASCII digits, at most MAX_NODE_ID, between blanks (spaces or tabs); any
    other line raises ValueError.

    The spans are cut at LF into blocks of at most _PARSE_BLOCK_BYTES (a longer line is a
    block of its own), which ``_parse_block`` reads without copying them; a last line with
    no LF is read from a copy that has one.
    """
    ids = np.empty((lines, count), dtype=np.int64)
    out = ids.reshape(-1)
    done = 0
    for start, stop in spans:
        while start < stop:
            end = (data.rfind(b"\n", start, min(start + _PARSE_BLOCK_BYTES, stop)) + 1
                   or data.find(b"\n", start, stop) + 1 or stop)
            block = np.frombuffer(data, dtype=np.uint8, count=end - start, offset=start)
            values = _parse_block(block if block[-1] == _LF else np.append(block, np.uint8(_LF)), count)
            out[done : done + values.size] = values
            done += values.size
            start = end
    return ids if done == ids.size else ids[: done // count].copy()  # a copy only when some lines were blank


def _parse_block(block: np.ndarray, count: int):
    """The ids of a block of whole lines, each blank or ``count`` ids between blanks; any other
    line raises ValueError.

    Once no byte is above '9', the bytes below '0' are the separators, and
    each must be a blank or an LF. Each id ends at a separator that follows
    a digit, and ends its line when the run of separators after it holds an
    LF; every count-th id, and no other, must end its line. In the form
    ``_write_id_rows`` writes, every separator follows a digit, so each run
    is one byte; only a block with longer runs reduces them. Each id is then
    read right to left, one decimal place at a time over all the block's
    ids, in uint32 when its longest id has at most 9 digits, else in uint64,
    which holds any 19 digits; a place left of an id's first digit reads 0.
    A longer id holds only if the digits left of its last 19 are '0', and
    one above MAX_NODE_ID fails.
    """
    if block.max() > _NINE:
        raise ValueError
    ends = np.flatnonzero(block < _ZERO)  # the separators, until those that end no id are dropped
    digits = ends - 1  # the digits before each separator, formed in place: no concatenated temporary
    digits[1:] -= ends[:-1]
    digits[0] += 1
    separators = block[ends]
    lf = separators == _LF
    if not (lf | (separators == _SPACE) | (separators == _TAB)).all():
        raise ValueError
    if digits.min() == 0:  # runs of blanks, or blank lines: one flag per id, whether its run holds an LF
        after_id = np.flatnonzero(digits)
        if not after_id.size:
            return after_id
        lf = np.logical_or.reduceat(lf, after_id)
        ends, digits = ends[after_id], digits[after_id]
    if ends.size != count * np.count_nonzero(lf) or not lf[count - 1 :: count].all():
        raise ValueError  # not an LF after every count-th id and after no other
    longest = int(digits.max())
    if longest > _MAX_DIGITS:
        nonzero = np.concatenate(([0], np.cumsum(block > _ZERO)))  # nonzero digits before each byte
        last = np.minimum(digits, _MAX_DIGITS)
        if (nonzero[ends - last] != nonzero[ends - digits]).any():
            raise ValueError
        digits, longest = last, _MAX_DIGITS
    shortest = int(digits.min())
    dtype = np.uint32 if longest <= 9 else np.uint64
    values = np.zeros(ends.size, dtype=dtype)
    term = np.empty_like(values)
    at = ends  # moved one place left per round, in place
    for place in range(longest):
        at -= 1
        digit = np.take(block, at, mode="clip")  # clip: a leading place of the first id may fall before the block
        digit -= _ZERO
        if place >= shortest:  # a leading place of the shorter ids
            np.copyto(digit, 0, where=digits <= place)
        values += np.multiply(digit, dtype(10**place), out=term, dtype=dtype)
    if longest == _MAX_DIGITS and values.max() > MAX_NODE_ID:
        raise ValueError
    return values


def _raise_first_bad_line(path: str, count: int):
    """Raise the error of an id file's first line that is neither blank, a comment nor ``count``
    ids; for a line that is not UTF-8, the error names its first bad byte."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            bad = _ESCAPED_BYTE.search(raw)
            if bad:
                raise ValueError(f"{path}: line {lineno}: invalid UTF-8 byte {ord(bad[0]) - 0xDC00:#04x}")
            line = raw.strip(_LINE_BLANKS)
            if line and not line.startswith("#"):
                _node_ids(line, count, path, lineno)
    raise ValueError(f"{path}: not a file of {count} node id(s) per line")


def _node_ids(line: str, count: int, path: str, lineno: int) -> None:
    """Raise unless a data line holds ``count`` ids: ASCII digits, at most MAX_NODE_ID."""
    parts = _FIELD_SEP.split(line)
    if len(parts) != count or not all(_NODE_ID.fullmatch(p) for p in parts):
        expected = "two node ids" if count == 2 else "a node id"
        raise ValueError(f"{path}: line {lineno}: expected {expected}, got {line!r}")
    ids = [int(p) for p in parts]
    if min(ids) < 0:
        raise ValueError(f"{path}: line {lineno}: node ids must be non-negative")
    if max(ids) > MAX_NODE_ID:
        raise ValueError(f"{path}: line {lineno}: node id above {MAX_NODE_ID}")


def load_graph(path: str, directed: bool = False, mapping_path: str | None = None):
    """Load an edge-list file into a simplified Graph or DiGraph.

    One edge per line as two non-negative integers separated by spaces or tabs;
    LF, CRLF and a lone CR all end a line; blank lines, and lines whose
    first non-blank character is '#', are ignored; undirected files may
    list an edge once in either orientation. A bad line raises ValueError
    naming the path and the first bad line's number. Sparse ids are
    remapped to a dense 0..n-1 range and kept in the report's ``id_map``;
    the mapping is written to a file only when ``mapping_path`` is given.
    Returns (graph, LoadReport).
    """
    edges, ignored = _read_ids(path, 2)
    num_nodes = int(edges.max()) + 1 if edges.size else 0
    # ids are dense when every one of 0..max is present: a presence mask tells
    # without a sort, unless there are too few ids to cover that range
    remapped = num_nodes > edges.size
    if not remapped:
        present = np.zeros(num_nodes, dtype=bool)
        present[edges] = True
        remapped = not present.all()
    if remapped:
        ids = graphmod.sorted_unique(edges)
        edges = np.searchsorted(ids, edges)
        num_nodes = ids.size
        if mapping_path is not None:
            _write_id_rows(mapping_path, "original_id remapped_id", np.stack([ids, np.arange(ids.size)], axis=1))
    # the rows are read into a new array, which the graph may keep as its edge array
    g = (DiGraph if directed else Graph)(*graphmod._simple_edges(edges, num_nodes, directed, adopt=True))
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
    return Graph(kept.size, dense[g.edge_array]), kept  # an increasing relabeling keeps the edges simple and sorted


def _write_id_rows(path: str, header: str, rows: np.ndarray) -> None:
    """A '# header' line, then one line of space-separated ids per row of a 2-D array.

    Ids are non-negative. The file is written in binary, so every line ends
    in '\\n' on every platform. Rows are formatted WRITE_CHUNK_ROWS at a time
    to bound memory. In a chunk, each column's ids are written right to left,
    one decimal digit per place, into places as wide as the column's largest
    id, then a separator; the leading places of each shorter id are zeroed
    and dropped. Widths are per column, so the id mapping's dense column does
    not pay for the wide original ids beside it, and a column's digits are
    worked out in uint32 when its largest id has at most 9 digits.
    """
    with open(path, "wb") as fh:
        fh.write(f"# {header}\n".encode())
        for start in range(0, rows.shape[0], WRITE_CHUNK_ROWS):
            chunk = rows[start : start + WRITE_CHUNK_ROWS]
            widths = [len(str(int(column.max()))) for column in chunk.T]  # chunk.max(axis=0) loops over each short row
            block = np.empty((chunk.shape[0], sum(widths) + len(widths)), dtype=np.uint8)
            end = 0  # the column's separator place
            for column, width in zip(chunk.T, widths):
                end += width
                rest = column.astype(np.uint32 if width <= 9 else np.uint64)
                for place in range(end - 1, end - width - 1, -1):
                    quotient = rest // 10  # with the product below, ~4x faster than np.divmod
                    np.add(rest - quotient * 10, ord("0"), out=block[:, place], casting="unsafe")
                    if place < end - 1:  # nothing left of the id: a leading place
                        np.copyto(block[:, place], 0, where=rest == 0)
                    rest = quotient
                block[:, end] = ord(" ")
                end += 1
            block[:, -1] = ord("\n")
            fh.write(block[block != 0].tobytes())


def write_edge_list(path: str, g) -> None:
    """One edge per line; undirected edges written once as 'u v' with u <= v."""
    _write_id_rows(path, f"{'directed' if isinstance(g, DiGraph) else 'undirected'}"
                         f" nodes={g.num_nodes} edges={g.num_edges}", g.edge_array)


def read_sharers(path: str, num_nodes: int, id_map: np.ndarray | None = None) -> SharingState:
    """Sharer-list file: one node id per line, read by the edge-list rules.

    Pass the LoadReport's ``id_map`` when the graph file's sparse ids were
    remapped, so sharer ids written in the original id space land on the
    right dense nodes. A sharer id that is not a node of the graph raises
    ValueError naming the path and the id.
    """
    ids = _read_ids(path, 1)[0][:, 0]
    known = np.arange(num_nodes) if id_map is None else id_map
    pos = np.searchsorted(known, ids)
    found = pos < known.size
    found[found] = known[pos[found]] == ids[found]
    if not found.all():
        raise ValueError(f"{path}: sharer id {int(ids[~found][0])} does not appear in the graph file")
    return SharingState.from_sharers(pos, num_nodes)


def write_sharers(path: str, s: SharingState) -> None:
    _write_id_rows(path, f"sharers={s.num_sharers} of nodes={s.num_nodes}", s.sharers[:, None])


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


def _csv_column(cells: tuple):
    """A column's CSV cells by format_value's rule, with one Python call per column where the types allow."""
    types = set(map(type, cells))
    if types == {float}:
        text = ("%.12g\n" * len(cells)) % cells
        out = text.split("\n")[:-1]
        return ["" if c == "nan" else c for c in out] if "nan" in text else out
    if types <= {int, str}:
        return map(str, cells)
    return map(format_value, cells)


def write_csv(path: str, comment: str, header: list, rows: list) -> None:
    """A '# comment' line, the header, then one line per row, each cell by ``format_value``.

    Rows are transposed CSV_CHUNK_ROWS at a time and formatted a column at a
    time: a column of floats by one '%' pass, of ints and strings by
    ``str``, any other (None, bool, numpy scalars, mixed) cell by cell. A
    row whose length is not the header's raises ValueError naming it,
    before the file is opened.
    """
    width = len(header)
    lengths = list(map(len, rows))
    if lengths.count(width) != len(lengths):
        i = next(i for i, k in enumerate(lengths) if k != width)
        raise ValueError(f"{path}: rows[{i}] has length {lengths[i]}, the header {width}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), CSV_CHUNK_ROWS):
            chunk = rows[start : start + CSV_CHUNK_ROWS]
            columns = [_csv_column(cells) for cells in zip(*chunk)] or [[""] * len(chunk)]
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")


# ---------------------------------------------------------------------------
# Estimation methods
# ---------------------------------------------------------------------------


def method_generator(seed: int, cell: int, method: str) -> np.random.Generator:
    """The stream that draws every sample of ``method`` in one grid cell (cell 0 for a static experiment).

    Its coordinates are fixed by the method's name, so adding or reordering
    methods leaves each method's draws unchanged. They never end in 0:
    make_generator(seed, cell, 0) is make_generator(seed, cell), the stream
    that builds the cell's graph.
    """
    return make_generator(seed, cell, 1 + METHODS.index(method))


def run_method(method: str, g, exposed: np.ndarray, n_samples: int, reps: int, rng, d_bar: float | None = None,
               walk_burn_in: int | None = None, walk_thin: int | None = None) -> np.ndarray:
    """reps estimates by the named method, n_samples fresh samples each.

    The samples are one (reps, n_samples) block drawn from ``rng`` by the
    method's sampling mode; their exposure bits are read from ``exposed``,
    the graph's exposure vector (``exposure_all``), and the estimator runs
    once on the block. Row r's estimate equals a 1-D estimator call on row
    r's samples. fp-walk draws the reps' start nodes, then walks them in
    lockstep.
    """
    mode = _METHOD_MODES.get(method)
    if mode is None:
        raise ValueError(f"unknown method: {method!r}")
    if mode == "node":
        samples = sample_uniform_nodes(g, (reps, n_samples), rng)
    elif method == "fp":
        samples = sample_random_friends(g, (reps, n_samples), rng)
    elif method == "fp-two-step":
        samples = sample_friend_two_step(g, (reps, n_samples), rng)
    elif method == "fp-walk":
        candidates = np.flatnonzero(g.degrees > 0)
        if not candidates.size:
            raise ValueError("fp-walk: cannot start a random walk on an edgeless graph")
        starts = candidates[rng.integers(candidates.size, size=reps)]
        samples = random_walk_friends(g, starts, walk_burn_in, walk_thin, n_samples, rng)
    else:
        samples = graphmod.sample_directed_many(g, mode, (reps, n_samples), rng)
    return estimate_from_bits(g, mode, samples, exposed[samples], d_bar)


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
    """Per-rep estimates for one (graph, sharing) pair, plus the condition verdict.

    ``warnings`` names each reason the rows are best-effort: a true
    exposure of 0, or a graph on which fp-walk's samples are biased.
    """

    rows: list  # (rep, method, estimate, abs_error, true_exposure)
    true_exposure: float
    verdict: ConditionVerdict | None
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

    Each method draws all its reps from its own (seed, 0, method) stream
    (``method_generator``), so adding or reordering methods leaves the
    other methods' estimates unchanged. Rows are ordered by rep, then
    method. With fp-walk among the methods, the graph is checked once for
    the walk's preconditions, and with d-friend, for exposed nodes of
    out-degree 0, which friend sampling never draws; either bias is
    reported in ``warnings``. Every input is checked before the first draw;
    a ``d_bar`` or walk length that no listed method reads raises ValueError.
    One exposure pass: the estimates and the verdict read one
    ``exposure_all`` vector.
    """
    directed = isinstance(g, DiGraph)
    _check_methods(methods, directed)
    _check_counts(n_samples, reps)
    _check_d_bar(d_bar)
    if g.num_nodes < 1:
        raise ValueError("true exposure is undefined on an empty graph")
    if d_bar is not None and all(_METHOD_MODES[m] == "node" for m in methods):
        raise ValueError("d_bar is read only by the degree-corrected methods, and every listed method "
                         "samples nodes uniformly")
    if "fp-walk" in methods:
        graphmod._walk_lengths(g, walk_burn_in, walk_thin)
    elif (walk_burn_in, walk_thin) != (None, None):
        raise ValueError("walk_burn_in and walk_thin are read only by fp-walk, which is not among the methods")
    exposed = exposure_all(g, s)
    f_bar = float(exposed.mean())
    estimates = [run_method(m, g, exposed, n_samples, reps, method_generator(seed, 0, m), d_bar,
                            walk_burn_in, walk_thin).tolist() for m in methods]
    rows = [(rep, m, est[rep], abs(est[rep] - f_bar), f_bar)
            for rep in range(reps) for m, est in zip(methods, estimates)]
    verdict = ConditionVerdict.from_moments(*_exposure_moments(g, exposed)) if not directed and g.num_edges else None
    warnings = graphmod.walk_precondition_failures(g) if "fp-walk" in methods else ()
    missed = int(np.count_nonzero(exposed & (g.out_degrees == 0))) if "d-friend" in methods else 0
    if missed:
        warnings += (f"d-friend samples are biased: {missed} of the {int(exposed.sum())} exposed nodes have "
                     "out-degree 0 and are never drawn, so the estimates' mean falls short of the true exposure "
                     f"by their share of the nodes, {format_value(missed / g.num_nodes)}",)
    if f_bar == 0.0:
        warnings += ("true exposure is 0; percent errors are undefined",)
    return StaticResult(rows, f_bar, verdict, warnings)


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
    tolerance: float = DEFAULT_TOLERANCE
    max_iters: int = DEFAULT_MAX_ITERS

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
    walk_failures: tuple  # why fp-walk's samples are biased on the cell's graph; () unless fp-walk is listed
    shaping_stops: tuple  # (rkk, rho): each shaping loop's ShapingResult.stop


GRID_HEADER = [f.name for f in fields(GridCell)[:14]]  # the last three fields only feed the CLI's warnings

LEDGER_HEADER = [
    "cell_index", "alpha", "rkk_target", "rho_target", "sharing_prob",
    "method", "rep", "estimate", "abs_error", "true_exposure",
]


def build_cell(cfg: GridConfig, cell_index: int, alpha: float, rkk_target, rho_target, p: float):
    """Generate and shape one grid cell's graph and sharing state.

    Returns (graph, sharing, rkk_achieved, rho_achieved, missed, stops) where
    ``missed`` flags a best-effort shaping stop beyond tolerance and
    ``stops`` holds the two loops' ``ShapingResult.stop``, rkk first.
    """
    rng = make_generator(cfg.seed, cell_index)
    seq = powerlaw_degree_sequence(cfg.nodes, alpha, cfg.k_min, rng, k_max=cfg.k_max)
    g, s, rkk, rho = shape_network(configuration_model(seq, rng), rng, rkk_target, p, rho_target,
                                   cfg.tolerance, cfg.max_iters)
    return g, s, rkk.achieved, rho.achieved, not (rkk.converged and rho.converged), (rkk.stop, rho.stop)


def run_grid(cfg: GridConfig, collect_ledger: bool = True):
    """Run every cell of the grid; returns (cells, ledger_rows, null_cells).

    Each method draws all reps of a cell from its own (seed, cell, method)
    stream (``method_generator``), so adding or reordering methods leaves
    the other methods' rows unchanged. A cell whose sharing exposes nobody
    (true exposure 0) has no defined percent error: it yields no GridCell
    row and is reported in ``null_cells`` instead, as the tuple of its first
    seven GridCell fields, ``shaping_missed`` and ``shaping_stops``. With
    fp-walk among the methods, each cell's graph is checked for the walk's
    preconditions and a failure is recorded in its rows' ``walk_failures``.
    Percent errors are 100 * |estimate - truth| / truth. Every cell's
    degree and shaping inputs are checked before the first cell is built.
    Each cell makes one exposure pass, which its truth and methods read.
    """
    _check_methods(cfg.methods, directed=False)
    _check_counts(cfg.n_samples, cfg.reps)
    for alpha, rkk_t, rho_t, p in cfg.cells():
        powerlaw_cap(cfg.nodes, alpha, cfg.k_min, cfg.k_max)
        shaping_targets(rkk_t, p, rho_t, cfg.tolerance, cfg.max_iters)
    cells_out: list[GridCell] = []
    ledger: list[tuple] = []
    null_cells: list[tuple] = []
    for cell_index, (alpha, rkk_t, rho_t, p) in enumerate(cfg.cells()):
        g, s, rkk_a, rho_a, missed, stops = build_cell(cfg, cell_index, alpha, rkk_t, rho_t, p)
        exposed = exposure_all(g, s)
        f_bar = float(exposed.mean())
        if f_bar == 0.0:
            null_cells.append((cell_index, alpha, rkk_t, rkk_a, rho_t, rho_a, p, missed, stops))
            continue
        walk_failures = graphmod.walk_precondition_failures(g) if "fp-walk" in cfg.methods else ()
        for method in cfg.methods:
            estimates = run_method(method, g, exposed, cfg.n_samples, cfg.reps,
                                   method_generator(cfg.seed, cell_index, method))
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
                    walk_failures=walk_failures,
                    shaping_stops=stops,
                )
            )
    return cells_out, ledger, null_cells


def grid_rows(cells: list) -> list:
    """One CSV row per GridCell: its GRID_HEADER fields, in header order."""
    return [tuple(getattr(c, column) for column in GRID_HEADER) for c in cells]


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
            if key not in _GRID_LIST_KEYS and key not in _GRID_SCALAR_KEYS:
                raise ValueError(f"{path}: line {lineno}: unknown key {key!r}")
            tokens = [tok.strip() for tok in val.split(",") if tok.strip()]
            if key in _GRID_LIST_KEYS and not tokens:
                raise ValueError(f"{path}: line {lineno}: {key} needs at least one value")
            try:
                values[key] = (tuple(map(_GRID_LIST_KEYS[key], tokens)) if key in _GRID_LIST_KEYS
                               else _GRID_SCALAR_KEYS[key](val))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {key}: {exc}") from None
    return GridConfig(**values)
