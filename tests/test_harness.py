"""File formats, the experiment grid, and the command-line surface."""

import dataclasses
import math
import os

import numpy as np
import pytest

from exposure_lab import SharingState, true_exposure
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

from exposure_lab import build_directed, build_undirected, harness, make_generator

from oracles import random_digraph, random_graph, reference_rep_estimates, reference_write_edge_list, star


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
        lines = [l for l in open(tmp_path / "g.map") if not l.startswith("#")]
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


# (name, file bytes, whether the bulk parser takes it)
PARSE_CASES = [
    ("hash_after_leading_spaces", b"0 1\n   # note\n1 2\n", False),
    ("hash_mid_line", b"0 1 # note\n1 2\n", False),
    ("crlf", b"# header\r\n0 1\r\n1 2\r\n", False),
    ("lone_cr", b"0 1\r1 2\n", False),
    ("lone_cr_ends_a_comment", b"# a\r0 1\n", False),
    ("tabs", b"0\t1\n1 \t 2\t\n", True),
    ("blank_and_whitespace_lines", b"\n0 1\n   \n\t\n1 2\n\n", True),
    ("no_final_newline", b"0 1\n1 2", True),
    ("comments_anywhere", b"# a\n0 1\n#b # c\n\n1 2\n# end", True),
    ("utf8_comment", "# \u00fcber \u2192 graph\n0 1\n".encode(), True),
    ("one_id", b"0 1\n2\n", False),
    ("three_ids_on_one_line", b"0 1\n1 2 3\n", False),
    ("three_ids_on_every_line", b"0 1 2\n1 2 3\n", False),
    ("negative_id", b"0 1\n-1 2\n", False),
    ("plus_sign", b"+5 1\n1 0\n", False),
    ("underscore", b"1_000 1\n", False),
    ("non_ascii_digits", "\u0661 \u0662\n".encode(), False),
    ("leading_zeros", b"007 1\n", True),
    ("twenty_digit_id", b"12345678901234567890 1\n", False),
    ("int64_max", b"9223372036854775807 0\n", True),
    ("int64_max_plus_one", b"9223372036854775808 0\n", False),
    ("invalid_utf8_in_edge_line", b"0 1\n\xff 2\n", False),
    ("invalid_utf8_in_comment", b"# \xff\n0 1\n", False),
    ("empty_file", b"", True),
    ("header_only", b"# undirected nodes=0 edges=0\n", True),
    ("whitespace_only", b" \n\t\n", True),
    ("sparse_ids", b"5 900\n900 7\n", True),
    ("dense_ids_with_gap", b"0 1\n3 4\n4 0\n", True),
    ("duplicates_and_self_loops", b"0 1\n1 0\n2 2\n1 2\n", True),
]


def _load_outcome(path, directed):
    """load_graph's graph arrays and report, or the exception type and message."""
    try:
        g, report = load_graph(path, directed=directed)
    except Exception as exc:  # noqa: BLE001 -- the outcome under comparison
        return ("raised", type(exc), str(exc))
    names = ("edge_array", "out_indptr", "out_indices", "in_indptr", "in_indices") if directed \
        else ("edge_array", "indptr", "indices")
    arrays = tuple(getattr(g, a).tolist() for a in names)
    fields = (report.num_nodes, report.num_edges, report.num_edge_lines, report.num_ignored_lines,
              report.remapped, None if report.id_map is None else report.id_map.tolist())
    return ("loaded", type(g), g.num_nodes, arrays, fields)


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


class TestBulkEdgeListParse:
    """The bulk path and the line-wise parser give identical results."""

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("name,data,plain", PARSE_CASES, ids=[c[0] for c in PARSE_CASES])
    def test_bulk_and_line_wise_agree(self, tmp_path, monkeypatch, name, data, plain, directed):
        f = tmp_path / "g.txt"
        f.write_bytes(data)
        assert (harness._parse_plain_edge_file(str(f)) is not None) == plain
        bulk = _load_outcome(str(f), directed)
        monkeypatch.setattr(harness, "_parse_plain_edge_file", lambda path: None)
        line_wise = _load_outcome(str(f), directed)
        assert bulk == line_wise

    def test_bulk_line_counts(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_bytes(b"# h\n\n0 1\n \t\n1\t2\n# t")
        g, report = load_graph(str(f))
        assert (report.num_edge_lines, report.num_ignored_lines) == (2, 4)
        assert g.edge_array.tolist() == [[0, 1], [1, 2]]

    def test_large_random_file_takes_bulk_path(self, tmp_path):
        rng = make_generator(311)
        edges = rng.integers(0, 3000, size=(20000, 2))
        f = tmp_path / "g.txt"
        f.write_text("# big\n" + "".join(f"{u}\t{v}\n" if i % 7 else f" {u}  {v} \n\n"
                                         for i, (u, v) in enumerate(edges.tolist())))
        edges_read, ignored = harness._parse_plain_edge_file(str(f))
        assert np.array_equal(edges_read, edges)
        assert ignored == 1 + (edges.shape[0] + 6) // 7
        assert np.array_equal(load_graph(str(f))[0].edge_array, build_undirected(edges, 3000).edge_array)


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
        f.write_text("5 900\n900 7\n7 12\n")
        load_graph(str(f), mapping_path=str(tmp_path / "g.map"))
        assert open(tmp_path / "g.map", "rb").read() == b"# original_id remapped_id\n5 0\n7 1\n12 2\n900 3\n"


class TestSharerFiles:
    def test_roundtrip(self, tmp_path):
        s = SharingState.from_sharers([1, 3], 5)
        f = tmp_path / "s.txt"
        write_sharers(str(f), s)
        s2 = read_sharers(str(f), 5)
        assert s2.sharers.tolist() == [1, 3]

    def test_out_of_range_rejected(self, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("7\n")
        with pytest.raises(ValueError):
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
        assert result.zero_exposure

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


class TestDegenerateRuns:
    """Zero reps, zero samples or no methods fail before any work is done."""

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

    @pytest.mark.parametrize("line", ["reps = 0", "n_samples = 0", "methods = ,"])
    def test_grid_cli_exit_code(self, tmp_path, monkeypatch, line):
        monkeypatch.setattr(harness, "build_cell", _no_shaping)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"nodes = 120\nalphas = 2.5\nk_max = 25\nsharing_probs = 0.2\nseed = 6\n{line}\n")
        out = tmp_path / "out.csv"
        assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--method", ","], "at least one method"), (["--method", "vanilla", "--samples", "0"], "n_samples >= 1"),
    ])
    def test_estimate_cli_exit_code(self, tmp_path, capsys, flags, message):
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1 2\n")
        sharers = tmp_path / "s.txt"
        sharers.write_text("1\n")
        out = tmp_path / "out.csv"
        assert main(["estimate", "--graph", str(graph), "--sharers", str(sharers),
                     "--reps", "2", "--out", str(out)] + flags) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def _oracle_graphs():
    """A 400-node undirected graph with isolated nodes, its sharers, and a directed graph."""
    rng = make_generator(321)
    g = build_undirected(rng.integers(0, 400, size=(700, 2)), 400)
    s = SharingState.from_sharers(rng.choice(400, 12, replace=False), 400)
    dg = build_directed(rng.integers(0, 400, size=(1600, 2)), 400)
    return g, s, dg


def _generators(seed, cell, reps):
    return [make_generator(seed, cell, rep) for rep in range(reps)]


class TestRunMethod:
    """run_method's batched estimates equal one 1-D estimator call per rep."""

    @pytest.mark.parametrize("d_bar", [None, 3.5])
    @pytest.mark.parametrize("method", UNDIRECTED_METHODS + DIRECTED_METHODS)
    def test_matches_reference_loop(self, method, d_bar):
        g, s, dg = _oracle_graphs()
        graph = dg if method in DIRECTED_METHODS else g
        got = run_method(method, graph, s, 50, _generators(7, 0, 60), d_bar, walk_burn_in=300, walk_thin=3)
        want = reference_rep_estimates(method, graph, s, 50, _generators(7, 0, 60), d_bar,
                                       walk_burn_in=300, walk_thin=3)
        assert got.shape == (60,)
        assert np.array_equal(got, want)

    def test_shared_generators_keep_method_order(self):
        # one generator per rep serves every method in turn, a walk between two others
        g, s, _ = _oracle_graphs()
        got_gens, want_gens = _generators(8, 0, 40), _generators(8, 0, 40)
        for method in ("vanilla", "fp-walk", "fp"):
            got = run_method(method, g, s, 30, got_gens, walk_burn_in=200, walk_thin=2)
            want = reference_rep_estimates(method, g, s, 30, want_gens, walk_burn_in=200, walk_thin=2)
            assert np.array_equal(got, want)

    def test_static_experiment_rows_match_reference(self):
        g, s, _ = _oracle_graphs()
        methods = ["vanilla", "fp-walk", "fp", "vanilla"]
        result = run_static_experiment(g, s, methods, 30, 25, seed=4, walk_burn_in=200, walk_thin=2)
        gens = _generators(4, 0, 25)
        want = [reference_rep_estimates(m, g, s, 30, gens, walk_burn_in=200, walk_thin=2).tolist() for m in methods]
        f_bar = result.true_exposure
        assert result.rows == [(rep, m, est[rep], abs(est[rep] - f_bar), f_bar)
                               for rep in range(25) for m, est in zip(methods, want)]

    def test_grid_ledger_matches_reference(self):
        cfg = tiny_grid()
        _, ledger, _ = run_grid(cfg)
        want = []
        for cell_index, (alpha, rkk_t, rho_t, p) in enumerate(cfg.cells()):
            g, s, _, _, _ = build_cell(cfg, cell_index, alpha, rkk_t, rho_t, p)
            f_bar = true_exposure(g, s)
            if f_bar == 0.0:
                continue
            for method in cfg.methods:
                ests = reference_rep_estimates(method, g, s, cfg.n_samples, _generators(cfg.seed, cell_index, cfg.reps))
                want += [(cell_index, alpha, rkk_t, rho_t, p, method, rep, est, abs(est - f_bar), f_bar)
                         for rep, est in enumerate(ests.tolist())]
        assert ledger == want


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

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "grid.cfg"
        f.write_text("wat = 7\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_grid_config(str(f))

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