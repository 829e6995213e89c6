"""File formats, the experiment grid, and the command-line surface."""

import dataclasses
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from exposure_lab import DiGraph, Graph, SharingState, exposure_all, true_exposure
from exposure_lab.cli import main
from exposure_lab.harness import (
    DIRECTED_METHODS,
    UNDIRECTED_METHODS,
    GridConfig,
    aggregate_ledger,
    build_cell,
    compact_nonisolated,
    format_value,
    grid_rows,
    load_graph,
    parse_grid_config,
    read_sharers,
    run_grid,
    run_method,
    run_static_experiment,
    write_csv,
    write_edge_list,
    write_sharers,
)

from exposure_lab import graph as graph_module
from exposure_lab import (
    StepPolicy,
    build_directed,
    build_undirected,
    cascade,
    cli,
    configuration_model,
    harness,
    make_generator,
    powerlaw_degree_sequence,
    run_tracking_experiment,
)

from oracles import (
    enum_directed_expectation,
    exposure_oracle,
    random_digraph,
    random_graph,
    random_sharing_mask,
    reference_build_directed,
    reference_build_undirected,
    reference_method_rows,
    reference_read_ids,
    reference_shaped_network,
    reference_write_csv,
    reference_walk_precondition_failures,
    reference_write_edge_list,
    reference_write_id_rows,
    shuffled_edges,
    star,
)


class TestLoadGraph:
    def test_path_graph(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 1\n1 2\n# comment\n")
        g, report = load_graph(str(f))
        assert g.num_nodes == 3
        assert g.num_edges == 2
        assert report.num_ignored_lines == 1
        assert not report.remapped

    def test_sparse_ids_remapped_with_sidecar(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("5 900\n")
        g, report = load_graph(str(f), mapping_path=str(tmp_path / "g.map"))
        assert g.num_nodes == 2
        assert g.num_edges == 1
        assert report.remapped
        lines = [l for l in (tmp_path / "g.map").read_text().splitlines() if not l.startswith("#")]
        assert [l.split() for l in lines] == [["5", "0"], ["900", "1"]]

    def test_sparse_ids_write_no_file_unless_asked(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("5 900\n900 7\n")
        before = sorted(os.listdir(tmp_path))
        g, report = load_graph(str(f))
        assert sorted(os.listdir(tmp_path)) == before
        assert report.remapped
        assert report.id_map.tolist() == [5, 7, 900]

    def test_malformed_line_reports_number(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 1\n0 x\n")
        with pytest.raises(ValueError, match="line 2"):
            load_graph(str(f))

    def test_undirected_duplicate_orientations_collapse(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 1\n1 0\n")
        g, _ = load_graph(str(f))
        assert g.num_edges == 1

    def test_directed_keeps_orientations(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 1\n1 0\n")
        g, _ = load_graph(str(f), directed=True)
        assert g.num_edges == 2

    def test_roundtrip_through_writer(self, tmp_path):
        g = star(4)
        f = tmp_path / "g.txt"
        write_edge_list(str(f), g)
        g2, _ = load_graph(str(f))
        assert np.array_equal(g2.edge_array, g.edge_array)

    def test_compact_nonisolated(self):
        from exposure_lab import build_undirected

        g = build_undirected([(0, 2), (2, 4)], 5)
        g2, kept = compact_nonisolated(g)
        assert kept.tolist() == [0, 2, 4]
        assert g2.num_nodes == 3
        assert g2.num_edges == 2
        g3, kept3 = compact_nonisolated(g2)
        assert g3 is g2 and kept3.size == 3

    @pytest.mark.parametrize("seed", range(3))
    def test_compacted_graph_equals_build_undirected(self, seed):
        # the compacted graph is built from the relabeled edges without build_undirected:
        # its arrays are what build_undirected makes of the same edges in any order
        rng = make_generator(313, seed)
        g = build_undirected(rng.integers(0, 400, size=(300, 2)), 500)
        compact, kept = compact_nonisolated(g)
        assert kept.size < g.num_nodes
        dense = np.searchsorted(kept, g.edge_array)
        built = build_undirected(shuffled_edges(dense, rng), kept.size)
        assert compact.num_nodes == built.num_nodes == kept.size
        for name in ("edge_array", "indptr", "indices", "degrees"):
            got, want = getattr(compact, name), getattr(built, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
            assert not got.flags.writeable, name


# (name, file bytes)
PARSE_CASES = [
    ("hash_after_leading_spaces", b"0 1\n   # note\n1 2\n"),
    ("hash_mid_line", b"0 1 # note\n1 2\n"),
    ("crlf", b"# header\r\n0 1\r\n1 2\r\n"),
    ("lone_cr", b"0 1\r1 2\n"),
    ("lone_cr_ends_a_comment", b"# a\r0 1\n"),
    ("tabs", b"0\t1\n1 \t 2\t\n"),
    ("blank_and_whitespace_lines", b"\n0 1\n   \n\t\n1 2\n\n"),
    ("no_final_newline", b"0 1\n1 2"),
    ("comments_anywhere", b"# a\n0 1\n#b # c\n\n1 2\n# end"),
    ("utf8_comment", "# \u00fcber \u2192 graph\n0 1\n".encode()),
    ("one_id", b"0 1\n2\n"),
    ("three_ids_on_one_line", b"0 1\n1 2 3\n"),
    ("three_ids_on_every_line", b"0 1 2\n1 2 3\n"),
    ("an_id_moved_to_the_line_before", b"0 1 2\n3\n"),
    ("an_id_moved_to_the_line_before_with_blank_runs", b"0 1  2\n\n3\n"),
    ("negative_id", b"0 1\n-1 2\n"),
    ("plus_sign", b"+5 1\n1 0\n"),
    ("underscore", b"1_000 1\n"),
    ("non_ascii_digits", "\u0661 \u0662\n".encode()),
    ("leading_zeros", b"007 1\n"),
    ("twenty_digit_id", b"12345678901234567890 1\n"),
    ("int64_max", b"9223372036854775807 0\n"),
    ("int64_max_plus_one", b"9223372036854775808 0\n"),
    ("invalid_utf8_in_edge_line", b"0 1\n\xff 2\n"),
    ("invalid_utf8_in_comment", b"# \xff\n0 1\n"),
    ("empty_file", b""),
    ("header_only", b"# undirected nodes=0 edges=0\n"),
    ("comments_only_without_final_newline", b"# a\n  # b"),
    ("whitespace_only", b" \n\t\n"),
    ("sparse_ids", b"5 900\n900 7\n"),
    ("dense_ids_with_gap", b"0 1\n3 4\n4 0\n"),
    ("duplicates_and_self_loops", b"0 1\n1 0\n2 2\n1 2\n"),
    ("negative_id_before_malformed_line", b"0 1\n-3 2\n0 x\n"),
    ("bad_line_after_5000_good_ones", b"0 1\n1 2\n" * 2500 + b"3 y\n"),
    ("byte_order_mark", "\ufeff0 1\n1 2\n".encode()),
    ("leading_zeros_25_digits", b"0000000000000000000000042 1\n"),
    ("vertical_tab", b"0 1\n1\x0b2\n"),
    ("tab_before_hash", b"0 1\n\t# note\n1 2\n"),
    ("hash_only_lines", b"#\n0 1\n#\n#\n"),
    ("final_comment_without_newline", b"0 1\n1 2\n# end"),
    # the sorted, distinct u < v rows that write_edge_list writes, and each way out of that form
    ("canonical", b"# undirected nodes=5 edges=5\n0 1\n0 4\n1 2\n1 3\n3 4\n"),
    ("canonical_with_a_duplicate", b"0 1\n0 4\n1 2\n1 2\n1 3\n3 4\n"),
    ("canonical_with_a_reversed_row", b"0 1\n0 4\n2 1\n1 3\n3 4\n"),
    ("canonical_with_a_self_loop", b"0 1\n0 4\n1 1\n1 2\n1 3\n3 4\n"),
    ("canonical_with_all_three", b"0 1\n0 4\n1 1\n2 1\n1 3\n1 3\n3 4\n"),
    ("dense_ids_with_one_missing", b"0 1\n0 4\n1 4\n3 4\n"),
    ("top_id_equal_to_id_count", b"0 1\n2 4\n"),
    ("top_id_one_below_id_count", b"0 1\n2 3\n"),
    ("comments_first_indented_and_last_without_newline", b"# first\n0 1\n \t# indented\n1 2\n# last"),
    ("hash_right_after_data", b"# header\n0 1\n1 2#x\n"),
]


def _load_outcome(path, directed):
    """load_graph's graph arrays and report, or the exception type and message."""
    try:
        g, report = load_graph(path, directed=directed)
    except Exception as exc:  # noqa: BLE001 -- the outcome under comparison
        return ("raised", type(exc), str(exc))
    names = ("edge_array",) + (("in_degrees", "out_degrees") if directed else ("indptr", "indices"))
    arrays = tuple(getattr(g, a).tolist() for a in names)
    fields = (report.num_nodes, report.num_edges, report.num_edge_lines, report.num_ignored_lines,
              report.remapped, None if report.id_map is None else report.id_map.tolist())
    return ("loaded", type(g), g.num_nodes, arrays, fields)


def _reference_load_outcome(path, directed):
    """_load_outcome's value, from the line-wise reader and the reference builders."""
    try:
        pairs, ignored = reference_read_ids(path, 2)
    except Exception as exc:  # noqa: BLE001 -- the outcome under comparison
        return ("raised", type(exc), str(exc))
    ids = np.unique(pairs)
    remapped = bool(ids.size) and ids[-1] != ids.size - 1
    n = ids.size if remapped else int(ids[-1]) + 1 if ids.size else 0
    if directed:  # compared as the in- and out-degrees
        edge_array, out_indptr, _, in_indptr, _ = reference_build_directed(np.searchsorted(ids, pairs), n)
        arrays = (edge_array, np.diff(in_indptr), np.diff(out_indptr))
    else:
        arrays = reference_build_undirected(np.searchsorted(ids, pairs), n)
    fields = (n, arrays[0].shape[0], pairs.shape[0], ignored, remapped, ids.tolist() if remapped else None)
    return ("loaded", DiGraph if directed else Graph, n, tuple(a.tolist() for a in arrays), fields)


def _read_outcome(reader, path, count):
    """A reader's ids and ignored-line count, or the exception type and message."""
    try:
        ids, ignored = reader(path, count)
    except Exception as exc:  # noqa: BLE001 -- the outcome under comparison
        return ("raised", type(exc), str(exc))
    return ("read", ids.dtype, ids.shape, ids.tolist(), ignored)


def _one_id_variant(data: bytes) -> bytes:
    """A parse case read as a sharer file: each pair of ASCII-digit ids cut to its first."""
    return re.sub(rb"([0-9]+)[ \t]+[0-9]+", rb"\1", data)


class TestNodeIdSyntax:
    """Ids are ASCII digits within int64; any other id fails with path and line."""

    @pytest.mark.parametrize("line", ["+5 1", "1_000 1", "\u0661 \u0662",
                                      "12345678901234567890 1", "9223372036854775808 0",
                                      "0\u20031", "1\u00a02", "0\x0c1", "0 1\u00a0"])
    def test_malformed_or_oversized_id_rejected(self, tmp_path, line):
        f = tmp_path / "g.txt"
        f.write_text("0 1\n" + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"g\.txt: line 2: "):
            load_graph(str(f))
        for directed in (False, True):
            assert _load_outcome(str(f), directed) == _reference_load_outcome(str(f), directed)


class TestBulkEdgeListParse:
    """The single-pass reader gives the line-wise reference's ids, line counts and errors."""

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("name,data", PARSE_CASES, ids=[c[0] for c in PARSE_CASES])
    def test_bulk_and_line_wise_agree(self, tmp_path, monkeypatch, name, data, directed):
        f = tmp_path / "g.txt"
        f.write_bytes(data)
        calls = _counting_loadtxt(monkeypatch)
        assert _read_outcome(harness._read_ids, str(f), 2) == _read_outcome(reference_read_ids, str(f), 2)
        assert _load_outcome(str(f), directed) == _reference_load_outcome(str(f), directed)
        assert calls == []

    @pytest.mark.parametrize("name,data", PARSE_CASES, ids=[c[0] for c in PARSE_CASES])
    def test_sharer_files_agree(self, tmp_path, monkeypatch, name, data):
        f = tmp_path / "s.txt"
        f.write_bytes(_one_id_variant(data))
        calls = _counting_loadtxt(monkeypatch)
        assert _read_outcome(harness._read_ids, str(f), 1) == _read_outcome(reference_read_ids, str(f), 1)
        assert calls == []

    def test_bulk_line_counts(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_bytes(b"# h\n\n0 1\n \t\n1\t2\n# t")
        g, report = load_graph(str(f))
        assert (report.num_edge_lines, report.num_ignored_lines) == (2, 4)
        assert g.edge_array.tolist() == [[0, 1], [1, 2]]

    def test_large_random_file_takes_bulk_path(self, tmp_path):
        # the line scan only raises, so a returned result comes from the single pass
        rng = make_generator(311)
        edges = rng.integers(0, 3000, size=(20000, 2))
        f = tmp_path / "g.txt"
        f.write_text("# big\n" + "".join(f"{u}\t{v}\n" if i % 7 else f" {u}  {v} \n\n"
                                         for i, (u, v) in enumerate(edges.tolist())))
        edges_read, ignored = harness._read_ids(str(f), 2)
        assert np.array_equal(edges_read, edges)
        assert ignored == 1 + (edges.shape[0] + 6) // 7
        assert np.array_equal(load_graph(str(f))[0].edge_array, build_undirected(edges, 3000).edge_array)

    def test_traced_peak_of_a_load(self, tmp_path):
        # the digit parse reads the file's bytes in place, 256 KiB at a time, into the array that
        # becomes the edge array: 2.03 edge arrays here, 2.78 with 1 MiB blocks, and 2.60 when
        # np.loadtxt parsed the path and the rows were unpacked again from their packed keys
        rng = make_generator(100_001)
        g, _ = compact_nonisolated(configuration_model(powerlaw_degree_sequence(100_000, 2.5, 2, rng, k_max=1000), rng))
        write_edge_list(str(tmp_path / "g.txt"), g)
        tracemalloc.start()
        try:
            loaded, report = load_graph(str(tmp_path / "g.txt"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.edge_array, g.edge_array) and report.num_ignored_lines == 1
        assert peak <= 2.8 * g.edge_array.nbytes

    @pytest.mark.parametrize("count", [1, 2])
    def test_bad_line_near_end_of_large_file(self, tmp_path, count):
        # over 64 KB of mixed LF and CRLF lines, so text mode decodes the line scan's input in many chunks
        good = "".join(" ".join([str(100000 + i)] * count) + ("\r\n" if i % 3 else "\n") for i in range(9000))
        f = tmp_path / "ids.txt"
        f.write_text("# ids\n" + good + "7 x\n0\n", encoding="utf-8", newline="")
        assert f.stat().st_size > 64 * 1024
        with pytest.raises(ValueError, match=r"ids\.txt: line 9002: expected "):
            harness._read_ids(str(f), count)
        assert _read_outcome(harness._read_ids, str(f), count) == _read_outcome(reference_read_ids, str(f), count)


# (name, edge file bytes, edges, (num_nodes, num_edges, num_edge_lines, num_ignored_lines, id_map),
#  sharer file bytes, sharers): what load_graph and read_sharers return, pinned
PINNED_PARSES = [
    ("crlf", b"# h\r\n0 1\r\n1 2\r\n", [[0, 1], [1, 2]], (3, 2, 2, 1, None), b"# h\r\n0\r\n2\r\n", [0, 2]),
    ("lone_cr", b"0 1\r1 2\r# c\r", [[0, 1], [1, 2]], (3, 2, 2, 1, None), b"0\r2\r# c\r", [0, 2]),
    ("tab_runs", b"0\t\t1\n\t1 \t\t 2\t\t\n", [[0, 1], [1, 2]], (3, 2, 2, 0, None), b"\t\t1\t\n2\n", [1, 2]),
    ("blank_lines", b"\n0 1\n   \n\t \t\n2 1\n\n", [[0, 1], [1, 2]], (3, 2, 2, 4, None), b" \n1\n\t\n", [1]),
    ("indented_comments", b"0 1\n   # a\n\t# b 3 4\n1 2\n", [[0, 1], [1, 2]], (3, 2, 2, 2, None),
     b"  #x\n2\n\t#\n", [2]),
    ("comment_on_line_1", b"# 5 6\n0 1\n", [[0, 1]], (2, 1, 1, 1, None), b"# 7\n1\n", [1]),
    ("no_final_newline", b"0 1\n1 2", [[0, 1], [1, 2]], (3, 2, 2, 0, None), b"0\n1", [0, 1]),
    ("sparse_crlf_and_tab", b"5 900\r\n900\t7\r\n", [[0, 2], [1, 2]], (3, 2, 2, 0, [5, 7, 900]),
     b"900\r\n7", [1, 2]),
    ("empty", b"", [], (0, 0, 0, 0, None), b"", []),
    ("comment_only", b"# a\n  # b\n", [], (0, 0, 0, 2, None), b"#\n", []),
]

# (name, edge file bytes, sharer file bytes, error message after the path)
PINNED_PARSE_ERRORS = [
    ("hash_after_id", b"0 1\n1 2 # x\n", b"0\n1 # x\n", "line 2: expected {}, got '1{} # x'"),
    ("one_id", b"0 1\n2\n", None, "line 2: expected two node ids, got '2'"),
    ("three_ids", b"0 1\n1 2 3\n", b"0\n1 2 3\n", "line 2: expected {}, got '1 2 3'"),
    ("id_2_pow_63", b"0 1\n9223372036854775808 0\n", b"0\n9223372036854775808\n",
     "line 2: node id above 9223372036854775807"),
]


class TestPathParse:
    """load_graph and read_sharers through the path-based parse: pinned arrays, reports and errors."""

    @pytest.mark.parametrize("name,data,edges,fields,sharer_data,sharers", PINNED_PARSES,
                             ids=[c[0] for c in PINNED_PARSES])
    def test_pinned_arrays_and_report(self, tmp_path, name, data, edges, fields, sharer_data, sharers):
        f, sf = tmp_path / "g.txt", tmp_path / "s.txt"
        f.write_bytes(data)
        sf.write_bytes(sharer_data)
        g, report = load_graph(str(f))
        num_nodes, id_map = fields[0], fields[4]
        assert g.edge_array.tolist() == edges and g.num_nodes == num_nodes
        assert (report.num_nodes, report.num_edges, report.num_edge_lines, report.num_ignored_lines) == fields[:4]
        assert report.remapped == (id_map is not None)
        assert (None if report.id_map is None else report.id_map.tolist()) == id_map
        assert np.array_equal(g.edge_array, build_undirected(edges, num_nodes).edge_array)
        assert read_sharers(str(sf), num_nodes, id_map=report.id_map).sharers.tolist() == sharers

    @pytest.mark.parametrize("name,data,sharer_data,message", PINNED_PARSE_ERRORS,
                             ids=[c[0] for c in PINNED_PARSE_ERRORS])
    def test_pinned_errors(self, tmp_path, name, data, sharer_data, message):
        f = tmp_path / "g.txt"
        f.write_bytes(data)
        with pytest.raises(ValueError) as err:
            load_graph(str(f))
        assert str(err.value) == f"{f}: " + message.format("two node ids", " 2")
        if sharer_data is not None:
            f.write_bytes(sharer_data)
            with pytest.raises(ValueError) as err:
                read_sharers(str(f), 3)
            assert str(err.value) == f"{f}: " + message.format("a node id", "")

    def test_invalid_utf8_names_the_byte(self, tmp_path, capsys):
        # (edge file, sharer file, line of the bad byte, the byte): LF, CRLF and
        # a lone CR each end a line; a sequence cut short names its lead byte
        cases = [(b"0 1\n\xff 2\n", b"0\n\xff\n", 2, "0xff"),
                 (b"# \xff\n0 1\n", b"# \xff\n0\n", 1, "0xff"),
                 (b"0 1\r\n1 2\r\xc3(\n", b"0\r\n1\r\xc3(\n", 3, "0xc3"),
                 (b"0 1\n\n1 2\xe2\x82", b"0\n\n1\xe2\x82", 3, "0xe2")]
        f = tmp_path / "g.txt"
        for edges, sharers, line, byte in cases:
            for data, read in ((edges, load_graph), (sharers, lambda path: read_sharers(path, 2))):
                f.write_bytes(data)
                with pytest.raises(ValueError) as err:
                    read(str(f))
                assert str(err.value) == f"{f}: line {line}: invalid UTF-8 byte {byte}"
            f.write_bytes(edges)
            assert main(["analyze", "--graph", str(f), "--sharers", str(f)]) == 2
            assert f"g.txt: line {line}: invalid UTF-8 byte {byte}" in capsys.readouterr().err
        # a bad line before the bad byte is the first bad line
        f.write_bytes(b"0 x\n\xff\n")
        with pytest.raises(ValueError, match=r"g\.txt: line 1: expected two node ids, got '0 x'$"):
            load_graph(str(f))


# (name, file bytes, ids per line, ids, ignored lines): files whose lines, once comments are dropped,
# are in the writer's form, which the digit parse checks with one separator after each id
WRITER_FORM_FILES = [
    ("header_comment", b"# undirected nodes=3 edges=2\n0 1\n1 2\n", 2, [[0, 1], [1, 2]], 1),
    ("leading_zeros", b"007 0100\n000 9\n000000000000000042 0\n", 2, [[7, 100], [0, 9], [42, 0]], 0),
    ("eighteen_digits", b"999999999999999999 100000000000000000\n0 123456789012345678\n", 2,
     [[10**18 - 1, 10**17], [0, 123456789012345678]], 0),
    ("nine_and_ten_digits", b"999999999 1000000000\n4294967295 4294967296\n", 2,
     [[999999999, 10**9], [2**32 - 1, 2**32]], 0),
    ("one_id_per_line", b"# sharers=3 of nodes=10\n0\n42\n999999999\n", 1, [[0], [42], [999999999]], 1),
    ("crlf", b"# h\r\n0 1\r\n1 2\r\n", 2, [[0, 1], [1, 2]], 1),
    ("lone_cr", b"# h\r0 1\r12 345\r", 2, [[0, 1], [12, 345]], 1),
    ("comments_between_and_last_without_newline", b"# a\n0 1\n \t# b\n1 2\n# end", 2, [[0, 1], [1, 2]], 3),
    ("utf8_comment", "# \u00fcber \u2192 graph\n3 4\n".encode(), 2, [[3, 4]], 1),
    ("comments_only", b"# a\n# b\n", 2, [], 2),
]

# (edge file line, sharer file line): lines that leave the writer's form but stay valid, which the same
# digit parse reads
OFF_FORM_LINES = [(b"5\t6\n", b"5\t\n"), (b"5  6\n", b"\t5\n"), (b" 5 6\n", b" 5\n"), (b"5 6 \n", b"5 \n"),
                  (b"\n", b"\n"), (b"9223372036854775807 6\n", b"9223372036854775807\n"),
                  (b"0000000000000000005 6\n", b"0000000000000000005\n")]


def _counting_loadtxt(monkeypatch):
    """Patch np.loadtxt to count its calls; returns the list of paths it was called on."""
    calls = []
    loadtxt = np.loadtxt

    def counted(path, *args, **kwargs):
        calls.append(path)
        return loadtxt(path, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    return calls


def _reformatted_id_file(rng, count: int, oversized: bool) -> bytes:
    """Random rows of ``count`` ids in every accepted form: blanks and tabs in runs, at the ends of
    lines and on lines of their own, comment lines, LF, CRLF and lone CR line ends, leading zeros
    to 25 digits, ids up to 2**63 - 1 and no final line end; with ``oversized``, one id is 2**63."""
    rows = rng.integers(0, 60, size=(int(rng.integers(1, 40)), count)).tolist()
    for row in rows:
        for k in range(count):
            if rng.random() < 0.1:
                row[k] = int(rng.integers(2**62, 2**63)) if rng.random() < 0.7 else 2**63 - 1
    if oversized:
        rows[int(rng.integers(len(rows)))][int(rng.integers(count))] = 2**63

    def blanks(chance, otherwise=""):
        return str(rng.choice([" ", "\t", "  ", " \t ", "\t\t"])) if rng.random() < chance else otherwise

    lines = []
    for row in rows:
        while rng.random() < 0.2:
            lines.append(str(rng.choice(["", " ", "\t \t", "# note", "  # 1 2", "\t#"])))
        ids = [str(i).zfill(int(rng.integers(len(str(i)), 26))) if rng.random() < 0.1 else str(i) for i in row]
        lines.append(blanks(0.15) + blanks(0.3, " ").join(ids) + blanks(0.15))
    ends = [str(rng.choice(["\n", "\r\n", "\r"])) if rng.random() < 0.3 else "\n" for _ in lines]
    if rng.random() < 0.3:
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)).encode()


class TestWriterFormParse:
    """Every accepted form, the writer's and the others, is parsed by the one digit parse, never by np.loadtxt."""

    @pytest.mark.parametrize("name,data,count,ids,ignored", WRITER_FORM_FILES, ids=[c[0] for c in WRITER_FORM_FILES])
    def test_pinned_ids_without_loadtxt(self, tmp_path, monkeypatch, name, data, count, ids, ignored):
        f = tmp_path / "ids.txt"
        f.write_bytes(data)
        calls = _counting_loadtxt(monkeypatch)
        want = ("read", np.dtype(np.int64), (len(ids), count), ids, ignored)
        assert _read_outcome(harness._read_ids, str(f), count) == want
        assert _read_outcome(reference_read_ids, str(f), count) == want
        assert calls == []

    @pytest.mark.parametrize("block_bytes", [1, 16, 64])
    @pytest.mark.parametrize("lines", OFF_FORM_LINES)
    @pytest.mark.parametrize("count", [1, 2])
    def test_leaving_the_form_in_a_later_block(self, tmp_path, monkeypatch, block_bytes, lines, count):
        # 40 lines in the writer's form first, so that the line that leaves it falls in a later block
        monkeypatch.setattr(harness, "_PARSE_BLOCK_BYTES", block_bytes)
        rows = (np.arange(80) * 37).reshape(40, 2).tolist()
        good = b"".join(b" ".join(b"%d" % i for i in row[:count]) + b"\n" for row in rows)
        line = lines[2 - count]
        f = tmp_path / "ids.txt"
        for data in (b"# h\n" + good + line, b"# h\n" + good + line + good, good + good.rstrip(b"\n")):
            f.write_bytes(data)
            calls = _counting_loadtxt(monkeypatch)
            outcome = _read_outcome(harness._read_ids, str(f), count)
            assert outcome == _read_outcome(reference_read_ids, str(f), count)
            assert outcome[0] == "read" and calls == []

    @pytest.mark.parametrize("block_bytes", [1, 16, 1 << 18])
    @pytest.mark.parametrize("count", [1, 2])
    def test_bad_line_in_a_later_block(self, tmp_path, monkeypatch, block_bytes, count):
        monkeypatch.setattr(harness, "_PARSE_BLOCK_BYTES", block_bytes)
        good = b"".join(b" ".join([b"%d" % i] * count) + b"\n" for i in range(300))
        f = tmp_path / "ids.txt"
        for bad, message in ((b"7 x", "expected "), (b"9223372036854775808", "node id above 9223372036854775807"),
                             (b"-1", "node ids must be non-negative")):
            f.write_bytes(b"# ids\n" + good + b" ".join([bad] + [b"1"] * (count - 1)) + b"\n" + good)
            with pytest.raises(ValueError, match=f"ids\\.txt: line 302: {message}"):
                harness._read_ids(str(f), count)
            assert _read_outcome(harness._read_ids, str(f), count) == _read_outcome(reference_read_ids, str(f), count)

    @pytest.mark.parametrize("block_bytes", [1, 16, 64, 1 << 18])
    @pytest.mark.parametrize("count", [1, 2])
    def test_reformatted_files_agree_with_the_reference(self, tmp_path, monkeypatch, block_bytes, count):
        monkeypatch.setattr(harness, "_PARSE_BLOCK_BYTES", block_bytes)
        rng = make_generator(3101, count, block_bytes)
        f = tmp_path / "ids.txt"
        for trial in range(30):
            f.write_bytes(_reformatted_id_file(rng, count, oversized=trial % 5 == 4))
            outcome = _read_outcome(harness._read_ids, str(f), count)
            assert outcome == _read_outcome(reference_read_ids, str(f), count)
            assert outcome[0] == ("raised" if trial % 5 == 4 else "read")
            if count == 2:
                assert _load_outcome(str(f), trial % 2 == 1) == _reference_load_outcome(str(f), trial % 2 == 1)

    def test_nineteen_digit_ids(self, tmp_path):
        # 19-digit ids are read in uint64 by the digit parse; 2**63 keeps its pinned error
        f = tmp_path / "g.txt"
        f.write_bytes(b"# h\n9223372036854775807 0\n1000000000000000000 9223372036854775807\n")
        g, report = load_graph(str(f))
        assert report.id_map.tolist() == [0, 10**18, 2**63 - 1] and g.edge_array.tolist() == [[0, 2], [1, 2]]
        f.write_bytes(b"# h\n9223372036854775807\n")
        assert read_sharers(str(f), 3, id_map=report.id_map).sharers.tolist() == [2]
        f.write_bytes(b"# h\n9223372036854775808 0\n")
        with pytest.raises(ValueError) as err:
            load_graph(str(f))
        assert str(err.value) == f"{f}: line 2: node id above 9223372036854775807"

    def test_written_files_never_reach_loadtxt(self, tmp_path, monkeypatch):
        rng = make_generator(3001)
        g, _ = compact_nonisolated(configuration_model(powerlaw_degree_sequence(20_000, 2.5, 2, rng, k_max=300), rng))
        s = SharingState.from_sharers(rng.choice(g.num_nodes, size=500, replace=False), g.num_nodes)
        write_edge_list(str(tmp_path / "g.txt"), g)
        write_sharers(str(tmp_path / "s.txt"), s)
        (tmp_path / "sparse.txt").write_bytes(b"5 900\n900 7\n")

        def refuse(*args, **kwargs):
            raise AssertionError("np.loadtxt called on a file in the writer's form")

        monkeypatch.setattr(np, "loadtxt", refuse)
        loaded, report = load_graph(str(tmp_path / "g.txt"))
        assert np.array_equal(loaded.edge_array, g.edge_array) and report.num_ignored_lines == 1
        assert np.array_equal(read_sharers(str(tmp_path / "s.txt"), g.num_nodes).sharers, s.sharers)
        assert np.array_equal(load_graph(str(tmp_path / "g.txt"), directed=True)[0].edge_array, g.edge_array)
        load_graph(str(tmp_path / "sparse.txt"), mapping_path=str(tmp_path / "sparse.map"))
        assert harness._read_ids(str(tmp_path / "sparse.map"), 2)[0].tolist() == [[5, 0], [7, 1], [900, 2]]

    def test_written_rows_become_the_edge_array(self, tmp_path, monkeypatch):
        # rows sorted, distinct and u < v are neither unpacked from packed keys nor copied
        g = build_undirected([[0, 1], [0, 4], [1, 2], [1, 3], [3, 4]], 5)
        write_edge_list(str(tmp_path / "g.txt"), g)
        read, parsed = harness._read_ids, []

        def kept(path, count):
            ids, ignored = read(path, count)
            parsed.append(ids)
            return ids, ignored

        monkeypatch.setattr(harness, "_read_ids", kept)
        monkeypatch.setattr(graph_module, "_edges_from_keys", None)
        for directed in (False, True):
            loaded, _ = load_graph(str(tmp_path / "g.txt"), directed=directed)
            assert loaded.edge_array is parsed[-1] and loaded.edge_array.tolist() == g.edge_array.tolist()


class TestBulkEdgeListWrite:
    """The chunked writer's bytes equal one formatted line per edge."""

    @pytest.mark.parametrize("chunk_rows", [1, 7, harness.WRITE_CHUNK_ROWS])
    def test_bytes_match_per_line_writer(self, tmp_path, monkeypatch, chunk_rows):
        monkeypatch.setattr(harness, "WRITE_CHUNK_ROWS", chunk_rows)
        rng = make_generator(312)
        graphs = [build_undirected([], 3), build_directed([], 2), star(6),
                  build_undirected(rng.integers(0, 500, size=(3000, 2)), 500),
                  build_directed(rng.integers(0, 500, size=(3000, 2)), 500)]
        graphs += [random_graph(rng, max_nodes=20) for _ in range(5)] + [random_digraph(rng) for _ in range(5)]
        for i, g in enumerate(graphs):
            got, want = tmp_path / f"got{i}.txt", tmp_path / f"want{i}.txt"
            write_edge_list(str(got), g)
            reference_write_edge_list(str(want), g)
            assert got.read_bytes() == want.read_bytes()

    def test_idmap_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "WRITE_CHUNK_ROWS", 2)
        f = tmp_path / "g.txt"
        # the second file holds the narrowest and the widest ids
        for text, mapping in (("5 900\n900 7\n7 12\n", b"5 0\n7 1\n12 2\n900 3\n"),
                              (f"{2**63 - 1} 0\n1000000000000000000 {2**63 - 1}\n",
                               b"0 0\n1000000000000000000 1\n9223372036854775807 2\n")):
            f.write_text(text)
            load_graph(str(f), mapping_path=str(tmp_path / "g.map"))
            assert (tmp_path / "g.map").read_bytes() == b"# original_id remapped_id\n" + mapping

    # 0, 1, 9, 10, 99, 100, ..., 10**18: each digit count's first and last id; then the largest id
    BOUNDARY_IDS = [i for k in range(19) for i in (10**k - 1, 10**k)] + [2**63 - 1]

    @staticmethod
    def assert_same_bytes(tmp_path, rows):
        got, want = tmp_path / "got.txt", tmp_path / "want.txt"
        harness._write_id_rows(str(got), "ids", rows)
        reference_write_id_rows(str(want), "ids", rows)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("chunk_rows", [1, 7, harness.WRITE_CHUNK_ROWS])
    def test_every_digit_boundary(self, tmp_path, monkeypatch, chunk_rows):
        monkeypatch.setattr(harness, "WRITE_CHUNK_ROWS", chunk_rows)
        ids = np.array(self.BOUNDARY_IDS, dtype=np.int64)
        assert ids[0] == 0 and ids[-1] == 2**63 - 1 and ids.size == 39
        self.assert_same_bytes(tmp_path, ids[:, None])
        # each id beside every width in turn: the same id, the reversed list, and a shifted one
        self.assert_same_bytes(tmp_path, np.stack([ids, ids], axis=1))
        self.assert_same_bytes(tmp_path, np.stack([ids, ids[::-1]], axis=1))
        self.assert_same_bytes(tmp_path, np.stack([np.roll(ids, 5), ids], axis=1))

    @pytest.mark.parametrize("columns", [1, 2])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_row_counts_around_the_chunk_size(self, tmp_path, extra, columns):
        rng = make_generator(25, extra + 1, columns)
        rows = rng.integers(0, 10 ** rng.integers(1, 19, size=(harness.WRITE_CHUNK_ROWS + extra, 1)),
                            size=(harness.WRITE_CHUNK_ROWS + extra, columns))
        self.assert_same_bytes(tmp_path, rows)

    def test_width_is_set_per_chunk_and_column(self, tmp_path, monkeypatch):
        # chunks of 1-digit ids between chunks of 19-digit ids, and a column of each beside the other:
        # no chunk or column is padded to another's width
        monkeypatch.setattr(harness, "WRITE_CHUNK_ROWS", 7)
        short = np.arange(14).reshape(7, 2) % 10
        long = 2**63 - 1 - np.arange(14).reshape(7, 2)
        for rows in (np.concatenate([short, long, short]), np.concatenate([long, short, long]),
                     np.concatenate([short[:, :1], long[:, :1]], axis=1), np.concatenate([long[:, :1], short[:, :1]], axis=1)):
            self.assert_same_bytes(tmp_path, rows)
        harness._write_id_rows(str(tmp_path / "mixed.txt"), "h", np.concatenate([short[:1], long[:1]]))
        assert (tmp_path / "mixed.txt").read_bytes() == b"# h\n0 1\n9223372036854775807 9223372036854775806\n"

    @pytest.mark.parametrize("nodes", [10_000, 100_000])
    def test_generated_graph_round_trip(self, tmp_path, nodes):
        rng = make_generator(nodes)
        g, _ = compact_nonisolated(configuration_model(powerlaw_degree_sequence(nodes, 2.5, 2, rng, k_max=1000), rng))
        got, want = tmp_path / "got.txt", tmp_path / "want.txt"
        write_edge_list(str(got), g)
        reference_write_edge_list(str(want), g)
        assert got.read_bytes() == want.read_bytes()
        g2, report = load_graph(str(got))
        assert not report.remapped and g2.num_nodes == g.num_nodes
        assert np.array_equal(g2.edge_array, g.edge_array)

    def test_memory_stays_bounded(self, tmp_path):
        # a path of m edges: at 2 and at 8 chunks every id has 6 digits, so each chunk's work is the same
        peaks = []
        for chunks in (2, 8):
            m = chunks * harness.WRITE_CHUNK_ROWS
            g = Graph(m + 1, np.stack([np.arange(m), np.arange(1, m + 1)], axis=1))
            tracemalloc.start()
            write_edge_list(str(tmp_path / "g.txt"), g)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        # measured: 2.81 and 2.88 MiB, while the edge array grows from 2 to 8 MiB
        assert peaks[1] <= 1.05 * peaks[0]

    def test_sharer_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "WRITE_CHUNK_ROWS", 2)
        f = tmp_path / "s.txt"
        write_sharers(str(f), SharingState.from_sharers([4, 1, 3], 6))
        assert f.read_bytes() == b"# sharers=3 of nodes=6\n1\n3\n4\n"
        write_sharers(str(f), SharingState.from_sharers([], 6))
        assert f.read_bytes() == b"# sharers=0 of nodes=6\n"


class TestSharerFiles:
    def test_roundtrip(self, tmp_path):
        s = SharingState.from_sharers([1, 3], 5)
        f = tmp_path / "s.txt"
        write_sharers(str(f), s)
        s2 = read_sharers(str(f), 5)
        assert s2.sharers.tolist() == [1, 3]

    def test_out_of_range_rejected(self, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("# one sharer\n7\n")
        with pytest.raises(ValueError, match=r"s\.txt: sharer id 7 does not appear in the graph file"):
            read_sharers(str(f), 5)

    def test_sharers_follow_graph_remapping(self, tmp_path):
        g_file = tmp_path / "g.txt"
        g_file.write_text("10 30\n30 500\n")
        s_file = tmp_path / "s.txt"
        s_file.write_text("500\n")
        g, report = load_graph(str(g_file))
        s = read_sharers(str(s_file), g.num_nodes, id_map=report.id_map)
        assert s.sharers.tolist() == [2]  # 500 is the third id in sorted order
        s_file.write_text("11\n")  # never appears in the graph file
        with pytest.raises(ValueError, match="11"):
            read_sharers(str(s_file), g.num_nodes, id_map=report.id_map)

    @pytest.mark.parametrize("line", ["+1", "1_0", "\u0661", "12345678901234567890", "\u00a01"])
    def test_malformed_or_oversized_id_rejected(self, tmp_path, line):
        f = tmp_path / "s.txt"
        f.write_text("0\n" + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"s\.txt: line 2: "):
            read_sharers(str(f), 5)
        assert _read_outcome(harness._read_ids, str(f), 1) == _read_outcome(reference_read_ids, str(f), 1)


class TestCsvConventions:
    def test_float_formatting(self):
        assert format_value(0.1234567890123456) == "0.123456789012"
        assert format_value(float("nan")) == ""
        assert format_value(None) == ""
        assert format_value(3) == "3"

    def test_header_comment_then_deterministic_body(self, tmp_path):
        f = tmp_path / "out.csv"
        write_csv(str(f), "stamp one", ["a", "b"], [(1, 0.5), (2, float("nan"))])
        lines = f.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "a,b"
        assert lines[2] == "1,0.5"
        assert lines[3] == "2,"

    def test_row_of_another_length_raises_naming_it(self, tmp_path):
        # transposing the rows would cut a short row's neighbours short without a word
        f = tmp_path / "out.csv"
        for rows, i, length in (([(1, 0.5), (2, 0.25), (3,)], 2, 1), ([(1, 0.5, 9), (2, 0.25)], 0, 3)):
            with pytest.raises(ValueError, match=rf"out\.csv: rows\[{i}\] has length {length}, the header 2$"):
                write_csv(str(f), "c", ["a", "b"], rows)
            assert not f.exists()

    # one column per kind of cell; each row takes a column's values in turn
    CSV_COLUMNS = {
        "float": [0.1234567890123456, math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 1e16,
                  123456789012.5, -2.5e-7, 5e-324, 1.7976931348623157e308, -math.nan],
        "none_and_float": [None, 0.5, math.nan, None, -1e-5],
        "int": [0, -3, 2**63, 17],
        "str": ["vanilla", "fp-two-step", "", "x y"],
        "int_and_str": [1, "fp", -2],
        "bool": [True, False],
        "float64": [np.float64(0.1), np.float64("nan"), np.float64(-0.0), np.float64(1e16)],
        "int64": [np.int64(-7), np.int64(2**62)],
        "float32": [np.float32(0.1), np.float32("inf"), np.float32("nan")],
        "int_and_float": [1, 0.5, 2, 1e16],
        "tuple": [(), (0, 3)],
        "none": [None],
    }

    @pytest.mark.parametrize("num_rows", [0, 1, 5, 1024, 2500])
    @pytest.mark.parametrize("chunk_rows", [3, harness.CSV_CHUNK_ROWS])
    def test_bytes_match_per_cell_writer(self, tmp_path, monkeypatch, num_rows, chunk_rows):
        monkeypatch.setattr(harness, "CSV_CHUNK_ROWS", chunk_rows)
        header = list(self.CSV_COLUMNS)
        columns = self.CSV_COLUMNS.values()
        rows = [tuple(values[(r * 7 + c) % len(values)] for c, values in enumerate(columns)) for r in range(num_rows)]
        for head, body in ((header, rows), ([], [()] * num_rows), (["only"], [(0.5,)] * num_rows)):
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            write_csv(str(got), "stamp", head, body)
            reference_write_csv(str(want), "stamp", head, body)
            assert got.read_bytes() == want.read_bytes()


class TestStaticExperiment:
    def test_star_center_error_ordering(self):
        # exact single-draw variances are 0.16 (vanilla) vs 0.64 (fp); the
        # Monte Carlo mean absolute errors must order the same way
        g = star(4)
        s = SharingState.from_sharers([0], 5)
        result = run_static_experiment(g, s, ["vanilla", "fp"], 1, 10_000, seed=5)
        by_method = {}
        for _, method, _, abs_err, _ in result.rows:
            by_method.setdefault(method, []).append(abs_err)
        assert np.mean(by_method["vanilla"]) < np.mean(by_method["fp"])
        assert not result.verdict.fp_preferred

    def test_single_rep_single_row(self):
        g = star(4)
        s = SharingState.from_sharers([0], 5)
        result = run_static_experiment(g, s, ["vanilla"], 10, 1, seed=0)
        assert len(result.rows) == 1

    def test_zero_exposure_flagged(self):
        g = star(4)
        s = SharingState.from_sharers([], 5)
        result = run_static_experiment(g, s, ["vanilla"], 10, 2, seed=0)
        assert result.warnings == ("true exposure is 0; percent errors are undefined",)

    def test_walk_and_two_step_methods_run(self):
        g = star(4)
        s = SharingState.from_sharers([0], 5)
        result = run_static_experiment(g, s, ["fp-walk", "fp-two-step"], 20, 3, seed=1,
                                       walk_burn_in=20, walk_thin=2)
        assert len(result.rows) == 6

    def test_directed_methods_rejected_on_undirected(self):
        g = star(4)
        s = SharingState.from_sharers([0], 5)
        with pytest.raises(ValueError):
            run_static_experiment(g, s, ["d-node"], 5, 1, seed=0)


def tiny_grid(seed=11):
    return GridConfig(
        nodes=150, alphas=(2.5, 2.8), k_min=1, k_max=30,
        rkk_targets=(None,), rho_targets=(None, 0.3),
        sharing_probs=(0.1, 0.3), methods=("vanilla", "fp"),
        n_samples=20, reps=10, seed=seed, max_iters=5_000,
    )


class TestRunGrid:
    def test_row_count_formula(self):
        cfg = tiny_grid()
        cells, ledger, null_cells = run_grid(cfg)
        expected_rows = (len(cfg.alphas) * len(cfg.rkk_targets) * len(cfg.rho_targets)
                         * len(cfg.sharing_probs) - len(null_cells)) * len(cfg.methods)
        assert len(cells) == expected_rows
        assert len(ledger) == sum(c.reps for c in cells)

    def test_aggregation_recomputable_from_ledger(self):
        cells, ledger, _ = run_grid(tiny_grid())
        recomputed = aggregate_ledger(ledger)
        for cell in cells:
            want = recomputed[(cell.cell_index, cell.method)]
            assert cell.mean_abs_error_pct == pytest.approx(want, abs=1e-9)

    def test_deterministic_given_seed(self):
        a_cells, a_ledger, _ = run_grid(tiny_grid())
        b_cells, b_ledger, _ = run_grid(tiny_grid())
        assert grid_rows(a_cells) == grid_rows(b_cells)
        assert a_ledger == b_ledger

    def test_achieved_correlations_recorded(self):
        cells, _, _ = run_grid(tiny_grid())
        shaped = [c for c in cells if c.rho_target is not None]
        assert shaped
        for c in shaped:
            assert math.isfinite(c.rho_achieved)


def _no_shaping(*args, **kwargs):
    raise AssertionError("a cell was built before the run was checked")


def _no_draw(*args, **kwargs):
    raise AssertionError("samples were drawn before the input was checked")


class TestDegenerateRuns:
    """Bad run inputs (counts, methods, recipe targets, misplaced flags) fail before any work is done."""

    @pytest.mark.parametrize("field,value,message", [
        ("reps", 0, "reps >= 1"), ("n_samples", 0, "n_samples >= 1"), ("methods", (), "at least one method"),
    ])
    def test_grid_rejects_before_shaping(self, monkeypatch, field, value, message):
        monkeypatch.setattr(harness, "build_cell", _no_shaping)
        with pytest.raises(ValueError, match=message):
            run_grid(dataclasses.replace(tiny_grid(), **{field: value}))

    @pytest.mark.parametrize("methods,n_samples,message", [
        (["vanilla"], 0, "n_samples >= 1"), (["fp-walk"], 0, "n_samples >= 1"), ([], 10, "at least one method"),
    ])
    def test_static_experiment_rejects(self, methods, n_samples, message):
        g = star(4)
        s = SharingState.from_sharers([0], 5)
        with pytest.raises(ValueError, match=message):
            run_static_experiment(g, s, methods, n_samples, 3, seed=0)

    def test_static_experiment_rejects_repeated_method(self):
        g = star(4)
        s = SharingState.from_sharers([0], 5)
        with pytest.raises(ValueError, match="'vanilla' listed twice"):
            run_static_experiment(g, s, ["vanilla", "fp", "vanilla"], 5, 2, seed=0)

    def test_static_experiment_rejects_an_empty_graph_before_drawing(self, monkeypatch):
        monkeypatch.setattr(harness, "run_method", _no_draw)
        with pytest.raises(ValueError, match="true exposure is undefined on an empty graph"):
            run_static_experiment(build_undirected([], 0), SharingState.from_sharers([], 0),
                                  ["vanilla", "fp"], 5, 2, seed=0)

    @pytest.mark.parametrize("text", ["", "# no edges\n"])
    def test_estimate_cli_rejects_an_empty_edge_file(self, tmp_path, monkeypatch, capsys, text):
        monkeypatch.setattr(harness, "run_method", _no_draw)
        graph = tmp_path / "g.txt"
        graph.write_text(text)
        sharers = tmp_path / "s.txt"
        sharers.write_text("")
        out = tmp_path / "out.csv"
        assert main(["estimate", "--graph", str(graph), "--sharers", str(sharers),
                     "--method", "vanilla,fp", "--reps", "2", "--out", str(out)]) == 2
        assert "true exposure is undefined on an empty graph" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["reps = 0", "n_samples = 0", "methods = ,", "methods = vanilla, fp, vanilla"])
    def test_grid_cli_exit_code(self, tmp_path, monkeypatch, line):
        monkeypatch.setattr(harness, "build_cell", _no_shaping)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"nodes = 120\nalphas = 2.5\nk_max = 25\nsharing_probs = 0.2\nseed = 6\n{line}\n")
        out = tmp_path / "out.csv"
        assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("lines,message", [
        ("sharing_probs = 0.2\nrho_targets = -0.2, 3", "correlation target must lie in [-1, 1]"),
        ("sharing_probs = 0.05, 1.5", "sharing probability must lie in [0, 1]"),
    ])
    def test_grid_checks_every_cell_before_shaping(self, tmp_path, monkeypatch, capsys, lines, message):
        monkeypatch.setattr(harness, "build_cell", _no_shaping)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"nodes = 120\nalphas = 2.5\nk_max = 25\nreps = 2\nseed = 6\n{lines}\n")
        out = tmp_path / "out.csv"
        assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lines,message", [
        ("nodes = 120\nalphas = 2.5, 1.5", "power-law exponent must exceed 2"),
        ("nodes = 1\nalphas = 2.5", "need at least two nodes"),
        ("nodes = 120\nalphas = 2.5\nk_min = 0", "k_min must be >= 1"),
        ("nodes = 120\nalphas = 2.5, 2.8\nk_min = 30", "k_max must be >= k_min"),
    ])
    def test_grid_checks_every_cells_degrees_before_shaping(self, tmp_path, monkeypatch, capsys, lines, message):
        monkeypatch.setattr(harness, "build_cell", _no_shaping)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"k_max = 25\nsharing_probs = 0.2\nreps = 2\nseed = 6\n{lines}\n")
        out = tmp_path / "out.csv"
        assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--degree-sharing-corr", "0.2"], "correlation target needs a sharing probability"),
        (["--sharing-prob", "1.5"], "sharing probability must lie in [0, 1]"),
        (["--out-sharers", "s.txt"], "--out-sharers requires --sharing-prob"),
        (["--sharing-prob", "0.1", "--degree-sharing-corr", "3"], "correlation target must lie in [-1, 1]"),
        (["--assortativity", "0.1", "--tolerance", "0"], "tolerance must lie in (0, 1)"),
    ])
    def test_generate_rejects_before_drawing(self, tmp_path, monkeypatch, capsys, flags, message):
        monkeypatch.setattr(harness, "build_cell", _no_shaping)
        monkeypatch.setattr(cli, "configuration_model", _no_shaping)
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--nodes", "120", "--alpha", "2.5", "--out-graph", "g.txt"] + flags) == 2
        assert message in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("flag,value", [
        ("--alpha", "2.5"), ("--kmin", "1"), ("--kmax", "10"), ("--assortativity", "0.3"),
        ("--tolerance", "0.01"), ("--max-iters", "10"),
    ])
    def test_track_graph_rejects_network_flags(self, tmp_path, capsys, flag, value):
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1 2\n2 0\n")
        out = tmp_path / "out.csv"
        assert main(["track", "--graph", str(graph), flag, value, "--model", "ltm", "--steps", "3",
                     "--out", str(out)]) == 2
        assert f"{flag} applies only to a network generated with --nodes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--method", ","], "at least one method"), (["--method", "vanilla", "--samples", "0"], "n_samples >= 1"),
        (["--method", "vanilla,vanilla"], "'vanilla' listed twice"),
        (["--method", "vanilla,fp,fp-walk", "--walk-thin", "0"], "thin must be >= 1"),
        (["--method", "fp-walk", "--walk-burn-in", "-1"], "burn_in must be >= 0"),
        (["--method", "vanilla,fp", "--walk-thin", "5"],
         "walk_burn_in and walk_thin are read only by fp-walk, which is not among the methods"),
        (["--method", "vanilla,fp", "--walk-thin", "5", "--walk-burn-in", "7"],
         "walk_burn_in and walk_thin are read only by fp-walk, which is not among the methods"),
        (["--method", "vanilla", "--dbar-override", "3"],
         "d_bar is read only by the degree-corrected methods, and every listed method samples nodes uniformly"),
        (["--directed", "--method", "d-node", "--dbar-override", "3"],
         "d_bar is read only by the degree-corrected methods, and every listed method samples nodes uniformly"),
    ] + [(methods + ["--dbar-override", value], f"d_bar must be finite and > 0, got {float(value)}")
         for methods in (["--method", "fp"], ["--method", "vanilla"], ["--directed", "--method", "d-node,d-friend"])
         for value in ("-3", "0", "nan", "inf")])
    def test_estimate_cli_exit_code(self, tmp_path, monkeypatch, capsys, flags, message):
        monkeypatch.setattr(harness, "run_method", _no_draw)
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1 2\n")
        sharers = tmp_path / "s.txt"
        sharers.write_text("1\n")
        out = tmp_path / "out.csv"
        assert main(["estimate", "--graph", str(graph), "--sharers", str(sharers),
                     "--reps", "2", "--out", str(out)] + flags) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("methods,inputs,message", [
        # fp-walk listed after two methods that draw first
        (["vanilla", "fp", "fp-walk"], dict(walk_thin=0), "thin must be >= 1"),
        (["vanilla", "fp", "fp-walk"], dict(walk_burn_in=-1), "burn_in must be >= 0"),
        (["vanilla", "fp", "fp-walk"], dict(walk_burn_in=-1, walk_thin=0), "thin must be >= 1"),
        # an input that no listed method reads; a d_bar that is not finite and > 0 is named first
        (["vanilla", "fp"], dict(walk_thin=5), "walk_burn_in and walk_thin are read only by fp-walk"),
        (["fp-two-step"], dict(walk_burn_in=7), "walk_burn_in and walk_thin are read only by fp-walk"),
        (["vanilla"], dict(d_bar=3.0), "d_bar is read only by the degree-corrected methods"),
        (["d-node"], dict(d_bar=3.0), "d_bar is read only by the degree-corrected methods"),
        (["vanilla"], dict(d_bar=-1.0), "d_bar must be finite and > 0, got -1.0"),
        (["d-node"], dict(d_bar=math.nan), "d_bar must be finite and > 0, got nan"),
    ])
    def test_static_experiment_rejects_before_drawing(self, monkeypatch, methods, inputs, message):
        monkeypatch.setattr(harness, "run_method", _no_draw)
        g = build_directed([(0, 1), (1, 2)], 3) if methods[0].startswith("d-") else star(4)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_static_experiment(g, SharingState.from_sharers([0], g.num_nodes), methods, 5, 2, seed=0, **inputs)

    @pytest.mark.parametrize("d_bar", [-3.0, 0.0, math.nan, math.inf])
    def test_static_experiment_rejects_a_bad_d_bar_before_drawing(self, monkeypatch, d_bar):
        monkeypatch.setattr(harness, "run_method", _no_draw)
        for g, methods in ((star(4), ["vanilla", "fp"]), (build_directed([(0, 1), (1, 2)], 3), ["d-friend"])):
            with pytest.raises(ValueError, match="d_bar must be finite and > 0"):
                run_static_experiment(g, SharingState.from_sharers([0], g.num_nodes), methods, 5, 2, seed=0,
                                      d_bar=d_bar)

    @pytest.mark.parametrize("flags,message", [
        (["--epsilon", "2.5"], "constant step size must lie in (0, 1], got 2.5"),
        (["--epsilon", "0"], "constant step size must lie in (0, 1], got 0.0"),
        (["--initial-estimate", "nan"], "initial estimate must be finite, got nan"),
        (["--policy", "decreasing", "--initial-estimate=-inf"], "initial estimate must be finite, got -inf"),
    ])
    def test_track_rejects_diverging_tracker_inputs(self, tmp_path, monkeypatch, capsys, flags, message):
        monkeypatch.setattr(cascade, "run_cascade", _no_draw)
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1 2\n2 0\n")
        out = tmp_path / "out.csv"
        assert main(["track", "--graph", str(graph), "--model", "icm", "--steps", "3", "--out", str(out)]
                    + flags) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_track_rejects_a_bad_epsilon_before_shaping(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "configuration_model", _no_shaping)
        out = tmp_path / "out.csv"
        assert main(["track", "--nodes", "120", "--model", "ltm", "--steps", "3", "--epsilon", "2.5",
                     "--out", str(out)]) == 2
        assert "constant step size must lie in (0, 1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["graph", "nodes"])
    @pytest.mark.parametrize("flags,message", [
        (["--model", "icm", "--p-inf", "7"], "infection probability must lie in [0, 1]"),
        (["--model", "icm", "--p-inf", "7", "--steps", "0"], "infection probability must lie in [0, 1]"),
        (["--model", "ltm", "--theta", "0"], "threshold must lie in (0, 1]"),
        (["--model", "icm", "--steps", "-1"], "steps must be >= 0"),
        (["--model", "icm", "--updates-per-step", "0"], "need at least one update per diffusion step"),
        (["--model", "icm", "--initial-estimate", "nan"], "initial estimate must be finite, got nan"),
        (["--model", "icm", "--seeds-count", "0"], "seed_count must lie in [1, num_nodes]"),
    ], ids=["p_inf", "p_inf_zero_steps", "theta", "steps", "updates_per_step", "initial_estimate", "seeds_count"])
    def test_track_rejects_cascade_inputs_before_loading_or_shaping(self, tmp_path, monkeypatch, capsys, source,
                                                                     flags, message):
        monkeypatch.setattr(harness, "load_graph", _no_shaping)
        monkeypatch.setattr(cli, "configuration_model", _no_shaping)
        out = tmp_path / "out.csv"
        net = (["--graph", str(tmp_path / "g.txt")] if source == "graph"
               else ["--nodes", "20000", "--assortativity", "0.1"])
        assert main(["track", *net, "--steps", "3", "--out", str(out)] + flags) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "20001"])
    def test_track_rejects_a_seed_count_beyond_nodes_before_shaping(self, tmp_path, monkeypatch, capsys, count):
        monkeypatch.setattr(cli, "configuration_model", _no_shaping)
        out = tmp_path / "out.csv"
        assert main(["track", "--nodes", "20000", "--assortativity", "0.1", "--model", "icm", "--steps", "3",
                     "--seeds-count", count, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "seed_count must lie in [1, num_nodes]" in captured.err and captured.out == ""
        assert not out.exists()

    def test_track_accepts_a_step_of_one(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1 2\n2 0\n2 3\n")
        out = tmp_path / "out.csv"
        assert main(["track", "--graph", str(graph), "--model", "icm", "--steps", "3", "--seeds-count", "1",
                     "--epsilon", "1", "--seed", "3", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2 + 3

    @pytest.mark.parametrize("source", ["graph", "nodes"])
    @pytest.mark.parametrize("flags,message", [
        (["--model", "ltm", "--p-inf", "7"], "--p-inf applies only with --model icm"),
        (["--model", "ltm", "--icm-retry"], "--icm-retry applies only with --model icm"),
        (["--model", "icm", "--theta", "0.2"], "--theta applies only with --model ltm"),
        (["--model", "icm", "--ltm-strict"], "--ltm-strict applies only with --model ltm"),
        (["--model", "icm", "--policy", "decreasing", "--epsilon", "0.1"],
         "--epsilon applies only with --policy constant"),
    ], ids=["p_inf_ltm", "icm_retry_ltm", "theta_icm", "ltm_strict_icm", "epsilon_decreasing"])
    def test_track_rejects_a_flag_its_settings_ignore(self, tmp_path, monkeypatch, capsys, source, flags, message):
        monkeypatch.setattr(harness, "load_graph", _no_shaping)
        monkeypatch.setattr(cli, "configuration_model", _no_shaping)
        out = tmp_path / "out.csv"
        net = ["--graph", str(tmp_path / "g.txt")] if source == "graph" else ["--nodes", "120"]
        assert main(["track", *net, "--steps", "3", "--out", str(out)] + flags) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,want", [
        (["--model", "icm"], dict(p_inf=0.05, icm_retry=False, theta=0.05, ltm_strict=False, epsilon=0.01)),
        (["--model", "icm", "--p-inf", "0.3", "--icm-retry", "--epsilon", "0.5"],
         dict(p_inf=0.3, icm_retry=True, theta=0.05, ltm_strict=False, epsilon=0.5)),
        (["--model", "ltm", "--theta", "0.2", "--ltm-strict", "--policy", "decreasing"],
         dict(p_inf=0.05, icm_retry=False, theta=0.2, ltm_strict=True, epsilon=0.01)),
    ], ids=["defaults", "icm_flags", "ltm_flags"])
    def test_track_fills_in_omitted_model_and_step_flags(self, tmp_path, monkeypatch, flags, want):
        seen = {}

        def recording(g, **kwargs):
            seen.update(kwargs)
            return []
        monkeypatch.setattr(cli, "run_tracking_experiment", recording)
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1 2\n2 0\n")
        assert main(["track", "--graph", str(graph), "--steps", "3", "--out", str(tmp_path / "out.csv")]
                    + flags) == 0
        assert {k: seen[k] for k in ("p_inf", "icm_retry", "theta", "ltm_strict")} == {
            k: want[k] for k in ("p_inf", "icm_retry", "theta", "ltm_strict")}
        assert seen["vanilla_policy"] == seen["fp_policy"] == StepPolicy(
            "decreasing" if "decreasing" in flags else "constant", want["epsilon"])


# every flag of cli._TRACK_FLAGS: the settings where it does not apply and the
# exact refusal there, then settings where it applies and its documented default
# spelled out (None for a default that is the flag's absence: a switch off, no
# assortativity target)
_TRACK_FLAG_CASES = {
    "p_inf": (["--model", "ltm", "--p-inf", "0.3"], "--p-inf applies only with --model icm",
              ["--model", "icm"], ["--p-inf", "0.05"]),
    "icm_retry": (["--model", "ltm", "--icm-retry"], "--icm-retry applies only with --model icm",
                  ["--model", "icm"], None),
    "theta": (["--model", "icm", "--theta", "0.2"], "--theta applies only with --model ltm",
              ["--model", "ltm"], ["--theta", "0.05"]),
    "ltm_strict": (["--model", "icm", "--ltm-strict"], "--ltm-strict applies only with --model ltm",
                   ["--model", "ltm"], None),
    "epsilon": (["--model", "icm", "--policy", "decreasing", "--epsilon", "0.1"],
                "--epsilon applies only with --policy constant", ["--model", "icm"], ["--epsilon", "0.01"]),
    **{flag: (["--model", "icm", f"--{flag.replace('_', '-')}", value],
              f"--{flag.replace('_', '-')} applies only to a network generated with --nodes, not to --graph",
              ["--model", "icm", "--assortativity", "0.1"], default)
       for flag, value, default in [
           ("alpha", "2.7", ["--alpha", "2.5"]), ("kmin", "2", ["--kmin", "1"]),
           ("kmax", "20", ["--kmax", "299"]), ("assortativity", "0.3", None),
           ("tolerance", "0.1", ["--tolerance", "0.01"]), ("max_iters", "10", ["--max-iters", "100000"])]},
}


class TestTrackFlagTable:
    """Each conditional track flag is refused where it does not apply, and omitted it takes its documented default."""

    @pytest.mark.parametrize("flag", list(cli._TRACK_FLAGS))
    def test_refused_where_it_does_not_apply(self, tmp_path, monkeypatch, capsys, flag):
        wrong, message, _, _ = _TRACK_FLAG_CASES[flag]
        monkeypatch.setattr(harness, "load_graph", _no_shaping)
        monkeypatch.setattr(cli, "configuration_model", _no_shaping)
        monkeypatch.chdir(tmp_path)
        source = ["--graph", "g.txt"] if message.endswith("--graph") else ["--nodes", "120"]
        assert main(["track", *source, *wrong, "--steps", "3", "--out", "out.csv"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("flag", list(cli._TRACK_FLAGS))
    def test_omitted_equals_its_default_given(self, tmp_path, flag):
        _, _, settings, given = _TRACK_FLAG_CASES[flag]
        if given is None:  # nothing to spell out: the table's default is the flag's absence
            assert cli._TRACK_FLAGS[flag][2] in (False, None)
            return
        bodies = []
        for extra in ([], given):
            out = tmp_path / f"out{len(bodies)}.csv"
            assert main(["track", "--nodes", "300", *settings, *extra, "--steps", "4", "--seed", "2",
                         "--out", str(out)]) in (0, 3)
            bodies.append(out.read_text().splitlines()[1:])
        assert len(bodies[0]) == 1 + 4  # the header and one row per step
        assert bodies[0] == bodies[1]

    def test_every_flag_has_a_case(self):
        assert set(_TRACK_FLAG_CASES) == set(cli._TRACK_FLAGS)


class TestSingleDeclarations:
    """The method list and the grid columns are declared once; their order is part of the output."""

    def test_method_order(self):
        # a method's place fixes its stream, so the order may not change
        assert harness.METHODS == ("vanilla", "fp", "fp-walk", "fp-two-step", "d-node", "d-friend", "d-follower")
        assert UNDIRECTED_METHODS == ("vanilla", "fp", "fp-walk", "fp-two-step")
        assert DIRECTED_METHODS == ("d-node", "d-friend", "d-follower")

    def test_grid_columns(self):
        assert harness.GRID_HEADER == [
            "cell_index", "alpha", "rkk_target", "rkk_achieved", "rho_target", "rho_achieved",
            "sharing_prob", "method", "n_samples", "reps", "true_exposure",
            "mean_abs_error", "mean_abs_error_pct", "std_error_pct",
        ]

    def test_run_method_rejects_an_unknown_method(self):
        g, s, _ = _oracle_graphs()
        with pytest.raises(ValueError, match="unknown method: 'fp-walks'"):
            run_method("fp-walks", g, exposure_all(g, s), 5, 2, make_generator(0))


def _oracle_graphs():
    """A 400-node undirected graph with isolated nodes, its sharers, and a directed graph."""
    rng = make_generator(321)
    g = build_undirected(rng.integers(0, 400, size=(700, 2)), 400)
    s = SharingState.from_sharers(rng.choice(400, 12, replace=False), 400)
    dg = build_directed(rng.integers(0, 400, size=(1600, 2)), 400)
    return g, s, dg


def _stream(seed, cell, method):
    """The (seed, cell, method) stream of the grid and estimate convention, spelled out."""
    return make_generator(seed, cell, 1 + (UNDIRECTED_METHODS + DIRECTED_METHODS).index(method))


class TestRunMethod:
    """run_method's block estimates equal one 1-D estimator call per row of the same block."""

    @pytest.mark.parametrize("d_bar", [None, 3.5])
    @pytest.mark.parametrize("method", UNDIRECTED_METHODS + DIRECTED_METHODS)
    def test_matches_reference_loop(self, method, d_bar):
        g, s, dg = _oracle_graphs()
        graph = dg if method in DIRECTED_METHODS else g
        got_rng, want_rng = make_generator(7, 0, 1), make_generator(7, 0, 1)
        got = run_method(method, graph, exposure_all(graph, s), 50, 60, got_rng, d_bar,
                         walk_burn_in=300, walk_thin=3)
        want = reference_method_rows(method, graph, s, 50, 60, want_rng, d_bar, walk_burn_in=300, walk_thin=3)
        assert got.shape == (60,)
        assert np.array_equal(got, want)
        assert got_rng.random() == want_rng.random()  # both drew exactly the block

    def test_shared_generators_keep_method_order(self):
        # one generator passed to each method in turn, a walk between two others, continues its stream
        g, s, _ = _oracle_graphs()
        exposed = exposure_all(g, s)
        got_rng, want_rng = make_generator(8), make_generator(8)
        for method in ("vanilla", "fp-walk", "fp"):
            got = run_method(method, g, exposed, 30, 40, got_rng, walk_burn_in=200, walk_thin=2)
            want = reference_method_rows(method, g, s, 30, 40, want_rng, walk_burn_in=200, walk_thin=2)
            assert np.array_equal(got, want)

    def test_static_experiment_rows_match_reference(self):
        g, s, _ = _oracle_graphs()
        methods = ["vanilla", "fp-walk", "fp"]
        result = run_static_experiment(g, s, methods, 30, 25, seed=4, walk_burn_in=200, walk_thin=2)
        want = [reference_method_rows(m, g, s, 30, 25, _stream(4, 0, m), walk_burn_in=200, walk_thin=2).tolist()
                for m in methods]
        f_bar = result.true_exposure
        assert result.rows == [(rep, m, est[rep], abs(est[rep] - f_bar), f_bar)
                               for rep in range(25) for m, est in zip(methods, want)]

    def test_grid_ledger_matches_reference(self):
        cfg = tiny_grid()
        _, ledger, _ = run_grid(cfg)
        want = []
        for cell_index, (alpha, rkk_t, rho_t, p) in enumerate(cfg.cells()):
            g, s, *_ = build_cell(cfg, cell_index, alpha, rkk_t, rho_t, p)
            f_bar = true_exposure(g, s)
            if f_bar == 0.0:
                continue
            for method in cfg.methods:
                ests = reference_method_rows(method, g, s, cfg.n_samples, cfg.reps,
                                             _stream(cfg.seed, cell_index, method))
                want += [(cell_index, alpha, rkk_t, rho_t, p, method, rep, est, abs(est - f_bar), f_bar)
                         for rep, est in enumerate(ests.tolist())]
        assert ledger == want

    def test_grid_rows_match_fresh_generators_per_method(self):
        # each method of a cell draws every rep from a fresh (seed, cell, method) stream
        cfg = dataclasses.replace(tiny_grid(), methods=("vanilla", "fp-walk", "fp"))
        cells, ledger, _ = run_grid(cfg)
        want_rows, want_ledger = [], []
        for cell_index, (alpha, rkk_t, rho_t, p) in enumerate(cfg.cells()):
            g, s, rkk_a, rho_a, *_ = build_cell(cfg, cell_index, alpha, rkk_t, rho_t, p)
            f_bar = true_exposure(g, s)
            if f_bar == 0.0:
                continue
            for method in cfg.methods:
                ests = run_method(method, g, exposure_all(g, s), cfg.n_samples, cfg.reps,
                                  _stream(cfg.seed, cell_index, method))
                errs = np.abs(ests - f_bar)
                pct = 100.0 * errs / f_bar
                want_rows.append((cell_index, alpha, rkk_t, rkk_a, rho_t, rho_a, p, method, cfg.n_samples, cfg.reps,
                                  f_bar, float(errs.mean()), float(pct.mean()),
                                  float(pct.std(ddof=1) / math.sqrt(cfg.reps))))
                want_ledger += [(cell_index, alpha, rkk_t, rho_t, p, method, rep, est, err, f_bar)
                                for rep, (est, err) in enumerate(zip(ests.tolist(), errs.tolist()))]
        assert grid_rows(cells) == want_rows
        assert ledger == want_ledger


class TestMethodStreams:
    """A method's stream is fixed by its name: other methods never move its rows."""

    @staticmethod
    def by_method(rows, method_at):
        """Rows grouped by their method column, which is dropped."""
        out = {}
        for row in rows:
            out.setdefault(row[method_at], []).append(row[:method_at] + row[method_at + 1:])
        return out

    def test_adding_or_reordering_methods_keeps_each_methods_grid_rows(self):
        base = dataclasses.replace(tiny_grid(), methods=("fp", "vanilla"))
        runs = [run_grid(dataclasses.replace(base, methods=methods))
                for methods in (("fp", "vanilla"), ("vanilla", "fp"), ("fp-two-step", "vanilla", "fp-walk", "fp"))]
        summaries = [self.by_method(grid_rows(cells), 7) for cells, _, _ in runs]
        ledgers = [self.by_method(ledger, 5) for _, ledger, _ in runs]
        for method in ("fp", "vanilla"):
            assert summaries[0][method] == summaries[1][method] == summaries[2][method]
            assert ledgers[0][method] == ledgers[1][method] == ledgers[2][method]

    def test_adding_or_reordering_methods_keeps_each_methods_estimates(self):
        g, s, _ = _oracle_graphs()
        runs = [run_static_experiment(g, s, methods, 20, 15, seed=9, walk_burn_in=50, walk_thin=2).rows
                for methods in (["fp-walk", "vanilla"], ["vanilla", "fp-walk"], ["fp", "vanilla", "fp-two-step", "fp-walk"])]
        estimates = [self.by_method(rows, 1) for rows in runs]
        for method in ("fp-walk", "vanilla"):
            assert estimates[0][method] == estimates[1][method] == estimates[2][method]

    def test_no_method_stream_is_a_cell_build_stream(self):
        # SeedSequence pads entropy with zeros: coordinates ending in 0 alias the shorter tuple
        assert make_generator(3, 2, 0).random() == make_generator(3, 2).random()
        for seed in (0, 3, 2**40):
            for cell in range(4):
                builds = {tuple(make_generator(seed, c).random(4)) for c in range(5)}
                for method in UNDIRECTED_METHODS + DIRECTED_METHODS:
                    draws = harness.method_generator(seed, cell, method).random(4)
                    assert np.array_equal(draws, _stream(seed, cell, method).random(4))
                    assert tuple(draws) not in builds


class TestGridConfigFile:
    def test_parse(self, tmp_path):
        f = tmp_path / "grid.cfg"
        f.write_text(
            "# demo grid\n"
            "nodes = 500\n"
            "alphas = 2.2, 2.5\n"
            "k_max = 40\n"
            "rkk_targets = none, 0.2\n"
            "rho_targets = -0.2\n"
            "sharing_probs = 0.05\n"
            "methods = vanilla, fp\n"
            "n_samples = 50\n"
            "reps = 20\n"
            "seed = 3\n"
        )
        cfg = parse_grid_config(str(f))
        assert cfg.nodes == 500
        assert cfg.alphas == (2.2, 2.5)
        assert cfg.k_max == 40
        assert cfg.rkk_targets == (None, 0.2)
        assert cfg.rho_targets == (-0.2,)
        assert cfg.methods == ("vanilla", "fp")

    def test_every_field_has_one_key(self):
        # a GridConfig field in neither table could not be set from grid --config
        lists, scalars = set(harness._GRID_LIST_KEYS), set(harness._GRID_SCALAR_KEYS)
        assert lists | scalars == {f.name for f in dataclasses.fields(GridConfig)}
        assert not lists & scalars

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "grid.cfg"
        f.write_text("wat = 7\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_grid_config(str(f))

    @pytest.mark.parametrize("key", ["alphas", "rkk_targets", "rho_targets", "sharing_probs", "methods"])
    def test_empty_list_rejected(self, tmp_path, monkeypatch, capsys, key):
        monkeypatch.setattr(harness, "build_cell", _no_shaping)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"nodes = 120\n{key} = , \nreps = 2\n")
        with pytest.raises(ValueError, match=f"line 2: {key} needs at least one value"):
            parse_grid_config(str(cfg))
        out = tmp_path / "out.csv"
        assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{key} needs at least one value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line,message", [
        ("alphas = 2.5, x", "line 2: alphas: could not convert string to float: 'x'"),
        ("nodes =", "line 2: nodes: invalid literal for int()"),
        ("rkk_targets = none, high", "line 2: rkk_targets: could not convert"),
    ])
    def test_bad_value_names_path_line_and_key(self, tmp_path, monkeypatch, capsys, line, message):
        monkeypatch.setattr(harness, "build_cell", _no_shaping)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"reps = 2\n{line}\n")
        out = tmp_path / "out.csv"
        assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{cfg}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_key_rejected(self, tmp_path):
        f = tmp_path / "grid.cfg"
        f.write_text("reps = 5\nseed = 1\nREPS = 7\n")
        with pytest.raises(ValueError, match="line 3: repeated key 'reps'"):
            parse_grid_config(str(f))


class TestCli:
    def test_generate_estimate_analyze_track_pipeline(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        sharers = tmp_path / "s.txt"
        out = tmp_path / "est.csv"
        code = main([
            "generate", "--nodes", "300", "--alpha", "2.5", "--kmax", "40",
            "--assortativity", "0.0", "--sharing-prob", "0.1",
            "--seed", "4", "--out-graph", str(graph), "--out-sharers", str(sharers),
            "--max-iters", "20000",
        ])
        assert code in (0, 3)
        assert graph.exists() and sharers.exists()

        code = main([
            "estimate", "--graph", str(graph), "--sharers", str(sharers),
            "--method", "vanilla,fp", "--samples", "30", "--reps", "5",
            "--seed", "9", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "rep,method,estimate,abs_error,true_exposure"
        assert len(lines) == 2 + 5 * 2

        code = main(["analyze", "--graph", str(graph), "--sharers", str(sharers)])
        assert code == 0
        text = capsys.readouterr().out
        assert "condition_lhs:" in text
        assert "var_vanilla_single_sample:" in text

        track_out = tmp_path / "track.csv"
        code = main([
            "track", "--graph", str(graph), "--model", "ltm", "--theta", "0.1",
            "--steps", "5", "--updates-per-step", "10", "--seed", "2",
            "--out", str(track_out),
        ])
        assert code == 0
        lines = track_out.read_text().splitlines()
        assert lines[1] == ("step,true_exposure,vanilla_est,fp_est,"
                            "vanilla_abs_err,fp_abs_err,degree_sharing_corr")
        assert len(lines) == 2 + 5

    def test_grid_cli_deterministic_body(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "nodes = 120\nalphas = 2.5\nk_max = 25\nrho_targets = none\n"
            "sharing_probs = 0.2\nmethods = vanilla, fp\nn_samples = 15\n"
            "reps = 8\nseed = 6\nmax_iters = 2000\n"
        )
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = main(["grid", "--config", str(cfg), "--out", str(out),
                         "--ledger-out", str(tmp_path / ("ledger_" + name))])
            assert code in (0, 3)
            outs.append(out.read_text().splitlines())
        # identical bodies; only the timestamped comment line may differ
        assert outs[0][1:] == outs[1][1:]

    def test_grid_names_each_missed_cell_once(self, tmp_path, capsys):
        # a -0.2 degree-sharing target at 5-7% sharing lies below each cell's degree floor
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("nodes = 500\nalphas = 2.5\nk_max = 40\nrho_targets = -0.2\nsharing_probs = 0.05, 0.06, 0.07\n"
                       "methods = vanilla, fp, fp-two-step\nn_samples = 20\nreps = 5\nseed = 1\n")
        out = tmp_path / "out.csv"
        assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 3
        assert len(out.read_text().splitlines()) == 2 + 9
        err = capsys.readouterr().err.splitlines()
        for cell in range(3):
            assert sum(line.startswith(f"warning: cell {cell} shaping stopped beyond tolerance") for line in err) == 1
        assert len(err) == 3
        # the warnings name where label swapping stopped: at the degree floor
        assert all(line.endswith(" stop=floor)") for line in err)

    def test_grid_null_cells_left_out_and_named_once(self, tmp_path, capsys):
        # nobody shares at p = 0, so cells 0 and 2 have zero true exposure
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("nodes = 300\nalphas = 2.5, 2.2\nk_max = 30\nsharing_probs = 0.0, 0.05\n"
                       "methods = vanilla, fp\nn_samples = 20\nreps = 5\nseed = 3\n")
        out, ledger = tmp_path / "out.csv", tmp_path / "ledger.csv"
        assert main(["grid", "--config", str(cfg), "--out", str(out), "--ledger-out", str(ledger)]) == 3
        rows = out.read_text().splitlines()[2:]
        assert [row.split(",")[0] for row in rows] == ["1", "1", "3", "3"]
        assert all(row.split(",")[6] == "0.05" for row in rows)
        ledger_cells = {row.split(",")[0] for row in ledger.read_text().splitlines()[2:]}
        assert ledger_cells == {"1", "3"}
        err = capsys.readouterr().err.splitlines()
        for cell in (0, 2):
            assert sum(line.startswith(f"warning: cell {cell} has zero true exposure") for line in err) == 1
        assert len(err) == 2

    def test_grid_names_a_null_cells_shaping_miss(self, tmp_path, capsys):
        # nobody shares at p = 0, and neither cell reaches the 0.9 assortativity target in 2000 iterations
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("nodes = 300\nalphas = 2.5\nk_max = 30\nrkk_targets = 0.9\nsharing_probs = 0.0, 0.05\n"
                       "methods = vanilla, fp\nreps = 20\nmax_iters = 2000\n")
        config = parse_grid_config(str(cfg))
        _, _, rkk_a, rho_a, missed, stops = build_cell(config, 0, 2.5, 0.9, None, 0.0)
        assert missed and rkk_a == pytest.approx(0.4421, abs=1e-4) and math.isnan(rho_a)
        assert stops == ("budget", "skipped")
        [(cell, alpha, rkk_t, rkk_achieved, rho_t, rho_achieved, p, shaping_missed, shaping_stops)] = \
            run_grid(config, False)[2]
        assert (cell, alpha, rkk_t, rkk_achieved, rho_t, p, shaping_missed, shaping_stops) == \
            (0, 2.5, 0.9, rkk_a, None, 0.0, True, stops)
        assert math.isnan(rho_achieved)
        assert main(["grid", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[0] == (f"warning: cell 0 shaping stopped beyond tolerance (rkk 0.9->{rkk_a:.4f} stop=budget, "
                          "rho None->nan stop=skipped)")
        assert re.fullmatch(r"warning: cell 1 shaping stopped beyond tolerance "
                            r"\(rkk 0\.9->0\.\d{4} stop=budget, rho None->-?0\.\d{4} stop=skipped\)", err[1])
        assert err[2].startswith("warning: cell 0 has zero true exposure")
        assert len(err) == 3

    @pytest.mark.parametrize("text, message", [("", "true exposure is undefined on an empty graph"),
                                               ("0 0\n", "the comparison needs at least one edge")])
    def test_analyze_rejects_an_edgeless_file(self, tmp_path, capsys, text, message):
        graph = tmp_path / "g.txt"
        graph.write_text(text)
        sharers = tmp_path / "s.txt"
        sharers.write_text("")
        assert main(["analyze", "--graph", str(graph), "--sharers", str(sharers)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    def test_analyze_output_on_the_four_cycle(self, tmp_path, capsys):
        # one sharer on the 4-cycle exposes its two neighbors, each of degree 2 = d_bar, so the
        # two estimators tie; every degree is 2, so both correlations divide by zero variance
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1 2\n2 3\n3 0\n")
        sharers = tmp_path / "s.txt"
        sharers.write_text("1\n")
        assert main(["analyze", "--graph", str(graph), "--sharers", str(sharers)]) == 0
        out, err = capsys.readouterr()
        assert out == ("nodes: 4\nedges: 4\naverage_degree: 2\nsharers: 1\ntrue_exposure: 0.5\n"
                       "degree_sharing_corr: undefined\nassortativity: undefined\n"
                       "var_vanilla_single_sample: 0.25\nvar_fp_single_sample: 0.25\n"
                       "condition_lhs: 0\nfp_preferred: True\ntie: True\n")
        assert err == ""

    def test_input_error_exit_code(self, tmp_path, capsys):
        assert main(["estimate", "--graph", str(tmp_path / "missing.txt"),
                     "--sharers", str(tmp_path / "also_missing.txt"),
                     "--method", "vanilla", "--out", str(tmp_path / "x.csv")]) == 2
        f = tmp_path / "bad.txt"
        f.write_text("0 x\n")
        assert main(["analyze", "--graph", str(f), "--sharers", str(f)]) == 2

    def test_oversized_id_exit_code(self, tmp_path, capsys):
        f = tmp_path / "big.txt"
        f.write_text("12345678901234567890 1\n")
        assert main(["analyze", "--graph", str(f), "--sharers", str(f)]) == 2
        assert "big.txt: line 1" in capsys.readouterr().err

    def test_oversized_sharer_id_exit_code(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1 2\n")
        sharers = tmp_path / "big.txt"
        sharers.write_text("# one sharer\n12345678901234567890\n")
        assert main(["analyze", "--graph", str(graph), "--sharers", str(sharers)]) == 2
        assert "big.txt: line 2" in capsys.readouterr().err

    def test_grid_method_checked_before_shaping(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "build_cell", _no_shaping)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("nodes = 120\nalphas = 2.5\nk_max = 25\nsharing_probs = 0.2\n"
                       "methods = vanilla, d-node\nreps = 2\nseed = 6\n")
        assert main(["grid", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 2
        assert "'d-node'" in capsys.readouterr().err

    def test_zero_exposure_warning_exit_code(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1 2\n")
        sharers = tmp_path / "s.txt"
        sharers.write_text("# nobody\n")
        code = main(["estimate", "--graph", str(graph), "--sharers", str(sharers),
                     "--method", "vanilla", "--samples", "5", "--reps", "2",
                     "--out", str(tmp_path / "out.csv")])
        assert code == 3


@pytest.fixture
def pair(tmp_path):
    """The CLI flags of a 400-node graph file and a sharer file, ~5% of its nodes sharing."""
    rng = make_generator(41)
    g, _ = compact_nonisolated(configuration_model(powerlaw_degree_sequence(400, 2.5, 1, rng, k_max=30), rng))
    graph, sharers = tmp_path / "g.txt", tmp_path / "s.txt"
    write_edge_list(str(graph), g)
    write_sharers(str(sharers), SharingState(rng.random(g.num_nodes) < 0.05))
    return ["--graph", str(graph), "--sharers", str(sharers)]


class TestOneExposurePass:
    """Each command computes the exposure vector of a (graph, sharers) pair once, and every exact number it
    prints or writes reads that vector: one scatter over ``cascade._friend_arcs`` per pair."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        arcs = cascade._friend_arcs

        def counted(g):
            calls.append(g.num_nodes)
            return arcs(g)

        monkeypatch.setattr(cascade, "_friend_arcs", counted)
        return calls

    def test_analyze(self, pair, passes, capsys):
        assert main(["analyze", *pair]) == 0
        assert len(passes) == 1

    @pytest.mark.parametrize("flags", [["--method", "vanilla,fp,fp-two-step,fp-walk", "--walk-burn-in", "20"],
                                       ["--directed", "--method", "d-node,d-friend,d-follower"]])
    def test_estimate(self, tmp_path, pair, passes, capsys, flags):
        assert main(["estimate", *pair, *flags, "--reps", "5", "--out", str(tmp_path / "out.csv")]) in (0, 3)
        assert len(passes) == 1

    def test_grid(self, tmp_path, passes, capsys):
        # cell 0 exposes nobody and is null; it still takes its one pass
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("nodes = 300\nalphas = 2.5\nk_max = 30\nsharing_probs = 0.0, 0.05, 0.1\n"
                       "methods = vanilla, fp, fp-two-step\nreps = 5\nseed = 3\n")
        assert main(["grid", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 3
        assert passes == [300] * 3

    def test_track_icm(self, tmp_path, pair, passes, capsys):
        # every step's exposure comes from the cascade's exposure times; the ICM steps scatter over no arc
        out = tmp_path / "out.csv"
        assert main(["track", *pair[:2], "--model", "icm", "--steps", "8", "--seed", "2", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 10
        assert len(passes) == 1


class TestFriendCSRBuildsPerRun:
    """Exposure sorts no friend lists: only the two-step sampler, the walk and the cascade steps read the
    friend CSR, which a Graph sorts once, on its first read."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        csr_from_keys = graph_module._csr_from_keys

        def counted(keys, counts, n):
            calls.append(n)
            return csr_from_keys(keys, counts, n)

        monkeypatch.setattr(graph_module, "_csr_from_keys", counted)
        return calls

    @pytest.mark.parametrize("flags,sorts", [
        (["--method", "vanilla,fp"], 0),
        (["--directed", "--method", "d-node,d-friend,d-follower"], 0),
        (["--method", "vanilla,fp,fp-two-step"], 1),
        (["--method", "fp-walk", "--walk-burn-in", "20"], 1),
    ], ids=["vanilla-fp", "directed", "fp-two-step", "fp-walk"])
    def test_estimate(self, tmp_path, pair, builds, capsys, flags, sorts):
        assert main(["estimate", *pair, *flags, "--reps", "5", "--out", str(tmp_path / "out.csv")]) in (0, 3)
        assert len(builds) == sorts

    def test_analyze(self, pair, builds, capsys):
        assert main(["analyze", *pair]) == 0
        assert builds == []

    @pytest.mark.parametrize("model", ["icm", "ltm"])
    def test_track(self, tmp_path, pair, builds, capsys, model):
        assert main(["track", *pair[:2], "--model", model, "--steps", "8", "--seed", "2",
                     "--out", str(tmp_path / "out.csv")]) == 0
        assert len(builds) == 1


def _estimate_cli(tmp_path, edges, sharers, flags):
    """Runs `estimate` on an edge list and a sharer list; returns (exit code, estimate column)."""
    graph = tmp_path / "g.txt"
    graph.write_text("".join(f"{u} {v}\n" for u, v in edges))
    sharer_file = tmp_path / "s.txt"
    sharer_file.write_text("".join(f"{v}\n" for v in sharers))
    out = tmp_path / "out.csv"
    code = main(["estimate", "--graph", str(graph), "--sharers", str(sharer_file), "--out", str(out)] + flags)
    rows = out.read_text().splitlines()[2:]
    return code, [row.split(",")[2] for row in rows]


class TestWalkPreconditions:
    """fp-walk is unbiased only on a connected, non-bipartite graph of the nodes with friends."""

    def test_disconnected_graph_exit_code(self, tmp_path, capsys):
        # a triangle 0-1-2 with pendant 3, plus a K10 on nodes 4-13: walks started
        # in the K10 never see the sharer's friends
        edges = [(0, 1), (1, 2), (0, 2), (2, 3)] + [(u, v) for u in range(4, 14) for v in range(u + 1, 14)]
        code, estimates = _estimate_cli(tmp_path, edges, [0], [
            "--method", "fp,fp-walk", "--samples", "200", "--reps", "5", "--walk-burn-in", "100", "--walk-thin", "3"])
        assert code == 3
        assert "fp-walk samples are biased: the nodes with friends form 2 components" in capsys.readouterr().err
        assert len(estimates) == 10

    def test_bipartite_star_exit_code(self, tmp_path, capsys):
        # burn-in 50 is even, so each walk ends on the side it started on: the
        # hub (estimate 0) a fifth of the time, a leaf (estimate 1.6) otherwise
        code, estimates = _estimate_cli(tmp_path, [(0, 1), (0, 2), (0, 3), (0, 4)], [0], [
            "--method", "fp-walk", "--samples", "1", "--reps", "400"])
        assert code == 3
        assert "fp-walk samples are biased: the graph is bipartite" in capsys.readouterr().err
        assert set(estimates) == {"0", "1.6"}

    def test_connected_non_bipartite_exit_code(self, tmp_path, capsys):
        # star plus a triangle among three leaves; node 5 hangs off leaf 4
        edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (1, 3), (4, 5)]
        code, estimates = _estimate_cli(tmp_path, edges, [0], [
            "--method", "vanilla,fp-walk", "--samples", "20", "--reps", "3", "--walk-burn-in", "60", "--walk-thin", "2"])
        assert code == 0
        assert "warning" not in capsys.readouterr().err
        assert len(estimates) == 6

    def test_edgeless_graph_exit_code(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("0 0\n1 1\n")  # self-loops only: two nodes, no edges
        sharers = tmp_path / "s.txt"
        sharers.write_text("0\n")
        out = tmp_path / "out.csv"
        assert main(["estimate", "--graph", str(graph), "--sharers", str(sharers),
                     "--method", "fp-walk", "--reps", "2", "--out", str(out)]) == 2
        assert "fp-walk: cannot start a random walk on an edgeless graph" in capsys.readouterr().err
        assert not out.exists()

    def test_isolated_nodes_do_not_count(self):
        g = build_undirected([(0, 1), (1, 2), (0, 2)], 6)  # nodes 3-5 have no friends
        s = SharingState.from_sharers([0], 6)
        result = run_static_experiment(g, s, ["fp-walk"], 10, 2, seed=0, walk_burn_in=20, walk_thin=2)
        assert result.warnings == ()

    def test_checked_only_for_fp_walk(self):
        s = SharingState.from_sharers([0], 5)
        assert run_static_experiment(star(4), s, ["vanilla", "fp"], 10, 2, seed=0).warnings == ()
        result = run_static_experiment(star(4), s, ["vanilla", "fp-walk"], 10, 2, seed=0)
        assert len(result.warnings) == 1 and "bipartite" in result.warnings[0]


class TestDirectedFriendBias:
    """d-friend draws the source end of a uniform link, so it never draws a node with out-degree 0."""

    def test_chain_exit_code(self, tmp_path, capsys):
        # 0 -> 1 -> 2 with 1 sharing: node 2 alone is exposed and has no
        # out-link, so every estimate is 0 against a true exposure of 1/3
        code, estimates = _estimate_cli(tmp_path, [(0, 1), (1, 2)], [1], [
            "--directed", "--method", "d-node,d-friend", "--samples", "10", "--reps", "4"])
        assert code == 3
        assert len(estimates) == 8 and set(estimates[1::2]) == {"0"}
        err = capsys.readouterr().err
        assert "warning: d-friend samples are biased: 1 of the 1 exposed nodes have out-degree 0" in err
        assert err.count("warning") == 1

    def test_warning_gives_the_exact_count_and_share(self):
        rng = make_generator(85)
        warned = 0
        for _ in range(40):
            g = random_digraph(rng)
            mask = random_sharing_mask(rng, g.num_nodes)
            s = SharingState(mask.copy())
            out_degrees = [sum(u == v for u, _ in g.edge_array.tolist()) for v in range(g.num_nodes)]
            exposed = [v for v in range(g.num_nodes) if exposure_oracle(g, mask, v)]
            missed = sum(out_degrees[v] == 0 for v in exposed)
            biased = [w for w in run_static_experiment(g, s, ["d-node", "d-friend", "d-follower"], 5, 2,
                                                       seed=0).warnings if w.startswith("d-friend")]
            if missed:
                share = missed / g.num_nodes
                assert biased == [f"d-friend samples are biased: {missed} of the {len(exposed)} exposed nodes "
                                  "have out-degree 0 and are never drawn, so the estimates' mean falls short "
                                  f"of the true exposure by their share of the nodes, {format_value(share)}"]
                # the share is the bias of friend sampling, by enumeration
                f_bar = len(exposed) / g.num_nodes
                assert enum_directed_expectation(g, mask, "friend") == pytest.approx(f_bar - share, abs=1e-12)
                warned += 1
            else:
                assert biased == []
            assert run_static_experiment(g, s, ["d-node", "d-follower"], 5, 2, seed=0).warnings in (
                (), ("true exposure is 0; percent errors are undefined",))
        assert warned >= 5


# 60 nodes of degree 2 (k_max 2): every cell's graph is a union of cycles
CYCLES_GRID = "nodes = 60\nalphas = 3.0\nk_max = 2\nsharing_probs = 0.2, 0.3, 0.4\nn_samples = 5\nreps = 4\nseed = 6\n"


class TestGridWalkPreconditions:
    """With fp-walk listed, the grid checks every cell's graph and flags each failing cell once (exit 3)."""

    def test_rows_carry_their_cells_failures(self):
        cfg = GridConfig(nodes=60, alphas=(3.0,), k_max=2, sharing_probs=(0.2, 0.3, 0.4),
                         methods=("vanilla", "fp-walk"), n_samples=5, reps=4, seed=6)
        cells, _, _ = run_grid(cfg)
        assert len(cells) == 6
        for c in cells:
            g, *_ = build_cell(cfg, c.cell_index, *cfg.cells()[c.cell_index])
            assert c.walk_failures == reference_walk_precondition_failures(g)
            assert "components" in c.walk_failures[0]

    def test_cli_names_each_failing_cell_once(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(CYCLES_GRID + "methods = vanilla, fp-walk, fp\n")
        assert main(["grid", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 3
        err = capsys.readouterr().err.splitlines()
        for cell in range(3):
            named = [line for line in err if line.startswith(f"warning: cell {cell}: ")]
            assert len(named) == 1 and "fp-walk samples are biased" in named[0]
        assert len(err) == 3

    def test_checked_only_for_fp_walk(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(CYCLES_GRID + "methods = vanilla, fp\n")
        assert main(["grid", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 0
        assert capsys.readouterr().err == ""

    def test_connected_cell_passes(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("nodes = 120\nalphas = 2.5\nk_max = 25\nsharing_probs = 0.2\nmethods = vanilla, fp-walk\n"
                       "n_samples = 5\nreps = 4\nseed = 6\n")
        assert main(["grid", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 0
        assert capsys.readouterr().err == ""


# (rkk target, sharing prob, rho target, tolerance, max_iters): shaped, unshaped,
# no sharer under a rho target, stopped beyond tolerance, and a zero budget
RECIPE_CASES = {
    "shaped": (0.1, 0.05, 0.2, 0.01, 100_000),
    "unshaped": (None, 0.05, None, 0.01, 100_000),
    "degenerate": (-0.1, 0.0, 0.2, 0.01, 100_000),
    "unconverged": (0.6, 0.05, -0.5, 0.01, 700),
    "max-iters-0": (0.3, 0.1, 0.3, 0.01, 0),
}


class TestNetworkRecipe:
    """build_cell, generate and track --nodes each match the reference recipe bit for bit."""

    NODES, ALPHA, KMAX, SEED = 400, 2.5, 40, 17

    def _drawn_graph(self, rng):
        return configuration_model(powerlaw_degree_sequence(self.NODES, self.ALPHA, 1, rng, k_max=self.KMAX), rng)

    def _flags(self, rkk, tolerance, max_iters):
        rkk_flags = [] if rkk is None else ["--assortativity", str(rkk)]
        return ["--nodes", str(self.NODES), "--alpha", str(self.ALPHA), "--kmax", str(self.KMAX),
                "--seed", str(self.SEED), "--tolerance", str(tolerance), "--max-iters", str(max_iters)] + rkk_flags

    @pytest.mark.parametrize("case", RECIPE_CASES)
    def test_matches_reference(self, tmp_path, case):
        rkk, p, rho, tolerance, max_iters = RECIPE_CASES[case]

        cfg = GridConfig(nodes=self.NODES, k_max=self.KMAX, seed=self.SEED, tolerance=tolerance, max_iters=max_iters)
        rng = make_generator(self.SEED, 3)
        want = reference_shaped_network(self._drawn_graph(rng), rng, rkk, p, rho, tolerance, max_iters)
        got = build_cell(cfg, 3, self.ALPHA, rkk, rho, p)
        assert np.array_equal(got[0].edge_array, want[0].edge_array)
        assert np.array_equal(got[1].mask, want[1].mask)
        assert np.array_equal(got[2:4], want[2:4], equal_nan=True)
        assert got[4:] == want[4:]

        rng = make_generator(self.SEED)
        g, _ = compact_nonisolated(self._drawn_graph(rng))
        want = reference_shaped_network(g, rng, rkk, p, rho, tolerance, max_iters)
        reference_write_edge_list(str(tmp_path / "want_g.txt"), want[0])
        write_sharers(str(tmp_path / "want_s.txt"), want[1])
        rho_flags = [] if rho is None else ["--degree-sharing-corr", str(rho)]
        code = main(["generate", "--sharing-prob", str(p), "--out-graph", str(tmp_path / "g.txt"),
                     "--out-sharers", str(tmp_path / "s.txt")] + rho_flags + self._flags(rkk, tolerance, max_iters))
        assert code == (3 if want[4] else 0)
        assert (tmp_path / "g.txt").read_bytes() == (tmp_path / "want_g.txt").read_bytes()
        assert (tmp_path / "s.txt").read_bytes() == (tmp_path / "want_s.txt").read_bytes()

        rng = make_generator(self.SEED)
        want = reference_shaped_network(self._drawn_graph(rng), rng, rkk, None, None, tolerance, max_iters)
        policy = StepPolicy("constant", 0.01)
        records = run_tracking_experiment(want[0], model="icm", steps=4, schedule=10, vanilla_policy=policy,
                                          fp_policy=policy, rng=rng)
        want_body = [",".join(format_value(x) for x in (
            r.step, r.true_exposure, r.vanilla_estimate, r.fp_estimate,
            r.vanilla_abs_error, r.fp_abs_error, r.degree_sharing_corr)) for r in records]
        out = tmp_path / "track.csv"
        code = main(["track", "--model", "icm", "--steps", "4", "--updates-per-step", "10",
                     "--out", str(out)] + self._flags(rkk, tolerance, max_iters))
        assert code == (3 if want[4] else 0)
        assert out.read_text().splitlines()[2:] == want_body
