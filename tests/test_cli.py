"""CLI behavior: artifacts, formats, exit codes, determinism."""
from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import covertower.cli as cli_mod
import covertower.multigraph as multigraph_mod
import covertower.tower as tower_mod
from covertower import MultiGraph, ValidationError
from covertower.cli import main

from conftest import cut_ratio, figure8, theta


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    if capsys is not None:
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return code


@pytest.fixture
def no_traversal(monkeypatch):
    """Make every graph traversal the CLI can reach fail the test."""

    def refuse(g, *args, **kwargs):
        raise AssertionError(f"traversed a {g.num_vertices}-vertex graph")

    for module in (multigraph_mod, tower_mod, cli_mod):
        monkeypatch.setattr(module, "spanning_tree", refuse)
    monkeypatch.setattr(multigraph_mod, "component_count", refuse)


@pytest.fixture
def irregular_cover(monkeypatch):
    """irregular_cover(k): the k-th cover homology_cover builds (from 1) has edge 0's head moved.

    The head is moved onto the tail, so the edge becomes a loop.
    """

    def install(k):
        real, built = tower_mod.z2_cover, []

        def moving(*args, **kwargs):
            cover = real(*args, **kwargs)
            built.append(cover)
            if len(built) != k:
                return cover
            ends = cover.graph.ends.copy()
            ends[0, 1] = ends[0, 0]
            graph = MultiGraph(cover.graph.num_vertices, ends, cover.graph.labels)
            return dataclasses.replace(cover, graph=graph)

        monkeypatch.setattr(tower_mod, "z2_cover", moving)

    return install


class TestTowerCommand:
    def test_writes_three_artifacts(self, tmp_path):
        prefix = tmp_path / "report"
        assert run_cli("tower", "--seed", "figure8", "--levels", "2", "--out", str(prefix)) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert [lvl["vertices"] for lvl in doc["levels"]] == [1, 4, 128]
        csv_text = (tmp_path / "report.csv").read_text()
        assert csv_text.splitlines()[0].startswith("level,constructed,vertices")
        svg = (tmp_path / "report.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_byte_identical_reruns(self, tmp_path):
        for name in ("a", "b"):
            assert (
                run_cli(
                    "tower", "--seed", "figure8", "--levels", "2",
                    "--out", str(tmp_path / name),
                )
                == 0
            )
        for ext in ("json", "csv", "svg"):
            first = (tmp_path / f"a.{ext}").read_bytes()
            second = (tmp_path / f"b.{ext}").read_bytes()
            assert first == second, ext

    def test_strict_truncation_exit_code(self, tmp_path, capsys):
        code, _, err = run_cli(
            "tower", "--seed", "figure8", "--levels", "3", "--strict",
            "--out", str(tmp_path / "t"), capsys=capsys,
        )
        assert code == 3
        assert json.loads(err)["error"] == "Truncated"
        # artifacts still written before the strict failure
        assert (tmp_path / "t.json").exists()

    def test_truncation_without_strict_is_success(self, tmp_path):
        assert (
            run_cli("tower", "--seed", "figure8", "--levels", "3", "--out", str(tmp_path / "t"))
            == 0
        )
        doc = json.loads((tmp_path / "t.json").read_text())
        assert doc["truncated"] is True
        assert doc["levels"][3]["vertices"] == 128 * 2**129

    def test_single_format_restriction(self, tmp_path):
        out = tmp_path / "only"
        assert (
            run_cli(
                "tower", "--seed", "cycle:4", "--levels", "1",
                "--out", str(out), "--format", "json",
            )
            == 0
        )
        assert out.with_suffix(".json").exists()
        assert not out.with_suffix(".csv").exists()
        assert not out.with_suffix(".svg").exists()

    def test_levels_zero(self, tmp_path):
        assert (
            run_cli("tower", "--seed", "figure8", "--levels", "0", "--out", str(tmp_path / "z"))
            == 0
        )
        doc = json.loads((tmp_path / "z.json").read_text())
        assert len(doc["levels"]) == 1

    def test_triangle_tower_four_levels(self, tmp_path):
        assert (
            run_cli(
                "tower", "--seed", "cycle:3", "--levels", "4", "--out", str(tmp_path / "c"),
            )
            == 0
        )
        doc = json.loads((tmp_path / "c.json").read_text())
        assert [lvl["vertices"] for lvl in doc["levels"]] == [3, 6, 12, 24, 48]
        # each level is a doubled-length cycle; the fiber-cut bound 2/#V_prev
        # is tight wherever the exact value is computable
        from fractions import Fraction

        for prev, lvl in zip(doc["levels"], doc["levels"][1:]):
            assert Fraction(lvl["lemma_bound"]) == Fraction(2, prev["vertices"])
            if lvl["cheeger_certified"] == "exact":
                assert lvl["cheeger_value"] == lvl["lemma_bound"]
            else:
                assert Fraction(lvl["cheeger_value"]) <= Fraction(lvl["lemma_bound"])

    def test_default_run_writes_json_csv_svg(self, tmp_path):
        prefix = str(tmp_path / "r")
        assert run_cli("tower", "--seed", "theta", "--levels", "1", "--out", prefix) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.json", "r.svg"]

    @pytest.mark.parametrize(
        "option, message",
        [
            (("--levels", "-1"), "levels must be nonnegative"),
            (("--levels", "1", "--vertex-cap", "0"), "caps must be positive"),
            (("--levels", "1", "--cheeger-cap", "37"), "cheeger cap is above 36 vertices"),
        ],
        ids=["negative-levels", "zero-vertex-cap", "cheeger-cap-above-ceiling"],
    )
    def test_invalid_settings_exit_2(self, tmp_path, capsys, option, message):
        code, _, err = run_cli(
            "tower", "--seed", "figure8", *option, "--out", str(tmp_path / "x"),
            capsys=capsys,
        )
        assert code == 2
        assert err == json.dumps({"error": "ValidationError", "message": message}) + "\n"
        assert list(tmp_path.iterdir()) == []

    def test_seed_above_vertex_cap_refused_before_traversal(self, tmp_path, capsys, no_traversal):
        code, _, err = run_cli(
            "tower", "--seed", "cycle:50", "--levels", "1", "--vertex-cap", "10",
            "--out", str(tmp_path / "x"), capsys=capsys,
        )
        assert code == 4
        assert json.loads(err) == {
            "error": "SizeCapError", "message": "seed has 50 vertices, above the cap 10",
        }

    def test_tree_seed_above_level_ceiling_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            "tower", "--seed", "bouquet:0", "--levels", str(tower_mod.MAX_TREE_LEVELS + 1),
            "--out", str(tmp_path / "x"), capsys=capsys,
        )
        assert code == 2
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "ValidationError",
            "message": "a rank-0 seed is its own cover; "
            f"levels must be at most {tower_mod.MAX_TREE_LEVELS}",
        }
        assert list(tmp_path.iterdir()) == []

    def test_bad_seed_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            "tower", "--seed", "dodecahedron", "--levels", "1",
            "--out", str(tmp_path / "x"), capsys=capsys,
        )
        assert code == 2
        assert json.loads(err)["error"] == "ValidationError"

    @pytest.mark.parametrize(
        "seed", ["cycle:1_0", "cycle: 5", "cycle:+5", "cycle:05", "cycle:\uff15", "bouquet:-0",
                 "bouquet:00", "bouquet:3 "],
    )
    def test_non_canonical_builtin_parameter_exit_2(self, tmp_path, capsys, seed):
        # Only the text str() gives for the value names a builtin graph.
        code, _, err = run_cli(
            "tower", "--seed", seed, "--levels", "1", "--out", str(tmp_path / "x"), capsys=capsys,
        )
        prefix, raw = seed.split(":")
        assert code == 2
        assert json.loads(err) == {
            "error": "ValidationError", "message": f"bad {prefix} parameter {raw!r}",
        }
        assert list(tmp_path.iterdir()) == []
        assert run_cli("spectrum", seed, capsys=capsys)[0] == 2

    def test_truncated_count_past_the_digit_limit_raises_str_error(self, tmp_path):
        # bouquet:12's level 2 has 4096 * 2^45057 vertices, 13,568 digits.
        vertices = 4096 << 45057
        try:
            str(vertices)
        except ValueError as exc:
            expected = str(exc)
        else:
            pytest.skip("no int-to-str digit limit")
        for fmt in ("json", "csv"):
            with pytest.raises(ValueError) as exc:
                main(["tower", "--seed", "bouquet:12", "--levels", "2",
                      "--format", fmt, "--out", str(tmp_path / "x")])
            assert str(exc.value) == expected


class TestCoverCommand:
    def test_cover_figure8_once(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert run_cli("cover", "figure8", "--iterate", "1", "--out", str(out)) == 0
        g = MultiGraph.from_json(out.read_text())
        assert g.num_vertices == 4
        assert g.num_edges == 8
        assert g.labels == ("0|00", "0|10", "0|01", "0|11")

    def test_cover_twice_matches_tower_level(self, tmp_path):
        out = tmp_path / "g2.json"
        assert run_cli("cover", "figure8", "--iterate", "2", "--out", str(out)) == 0
        g = MultiGraph.from_json(out.read_text())
        assert g.num_vertices == 128

    def test_cover_stdout_dot(self, capsys):
        code, stdout, _ = run_cli("cover", "cycle:3", "--format", "dot", capsys=capsys)
        assert code == 0
        assert stdout.startswith("graph G {")

    def test_iterate_zero_echoes_input(self, capsys):
        code, stdout, _ = run_cli("cover", "theta", "--iterate", "0", capsys=capsys)
        assert code == 0
        assert MultiGraph.from_json(stdout).num_vertices == 2

    def test_cap_exceeded_exit_4(self, tmp_path, capsys):
        code, _, err = run_cli(
            "cover", "figure8", "--iterate", "2", "--vertex-cap", "100",
            capsys=capsys,
        )
        assert code == 4
        assert json.loads(err)["error"] == "SizeCapError"

    def test_oversized_later_step_refused_before_its_walk(self, capsys, monkeypatch):
        # Level 1 is connected, so its 4 * 2^5-vertex cover is sized unwalked.
        walks = []
        real = tower_mod.spanning_tree

        def recording(g):
            walks.append(g.num_vertices)
            return real(g)

        monkeypatch.setattr(tower_mod, "spanning_tree", recording)
        code, out, err = run_cli(
            "cover", "figure8", "--iterate", "3", "--vertex-cap", "100", capsys=capsys
        )
        assert (code, out) == (4, "")
        assert err == json.dumps({
            "error": "SizeCapError",
            "message": "cover would have 4 * 2^5 vertices, above the cap 100",
        }) + "\n"
        assert walks == [1]

    def test_later_step_at_the_cap_is_built(self, capsys):
        code, out, _ = run_cli(
            "cover", "figure8", "--iterate", "2", "--vertex-cap", "128", capsys=capsys
        )
        assert code == 0
        assert MultiGraph.from_json(out).num_vertices == 128

    def test_cover_count_past_the_int_to_str_digit_limit_exit_4(self, capsys):
        # 2^20000 has more than 4300 decimal digits; the message words it as a power
        code, out, err = run_cli("cover", "bouquet:20000", capsys=capsys)
        assert (code, out) == (4, "")
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "SizeCapError",
            "message": "cover would have 1 * 2^20000 vertices, above the cap 1000000",
        }

    def test_allocation_failure_exit_4(self):
        # 2^40 sheets pass the raised cap, and the first sheet-sized array
        # cannot be allocated under a 3 GB address-space limit.  The limit is
        # set on the child only: without it, overcommit could let the
        # allocation through and end in the OOM killer.
        resource = pytest.importorskip("resource")
        limit = 3_000_000 * 1024
        result = subprocess.run(
            [sys.executable, "-m", "covertower.cli", "cover", "bouquet:40",
             "--vertex-cap", "10000000000000"],
            capture_output=True,
            text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert (result.returncode, result.stdout) == (4, "")
        assert "Traceback" not in result.stderr
        assert result.stderr.count("\n") == 1
        doc = json.loads(result.stderr)
        assert doc["error"] == "SizeCapError"
        assert doc["message"].startswith("Unable to allocate 8.00 TiB")

    def test_memory_error_without_text_exit_4(self, capsys, monkeypatch):
        # Python's own MemoryError (a list too large to build) has no message
        def exhausted(text):
            raise MemoryError

        monkeypatch.setattr(cli_mod, "resolve_graph_input", exhausted)
        code, out, err = run_cli("cover", "cycle:100000000", capsys=capsys)
        assert (code, out) == (4, "")
        assert json.loads(err) == {"error": "SizeCapError", "message": "out of memory"}

    def test_graph_above_cap_refused_before_traversal(self, capsys, no_traversal):
        code, _, err = run_cli("cover", "cycle:50", "--vertex-cap", "10", capsys=capsys)
        assert code == 4
        assert json.loads(err) == {
            "error": "SizeCapError", "message": "graph has 50 vertices, above the cap 10",
        }

    def test_uncovered_graph_above_cap_refused(self, capsys):
        # --iterate 0 only exports, and the export's id table is graph-sized
        code, out, err = run_cli(
            "cover", "cycle:50", "--iterate", "0", "--vertex-cap", "10", capsys=capsys
        )
        assert (code, out) == (4, "")
        assert json.loads(err) == {
            "error": "SizeCapError", "message": "graph has 50 vertices, above the cap 10",
        }

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"vertices": 2, "edges": 7}', "'edges' must be a list of vertex-id pairs"),
            ('{"vertices": 2, "edges": null}', "'edges' must be a list of vertex-id pairs"),
            ('{"vertices": 2, "edges": [[0, 1]], "labels": 5}', "'labels' must be a list"),
            ('{"vertices": 2, "edges": [[0, 1]], "labels": "ab"}', "'labels' must be a list"),
            ("not json", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
            ("[1, 2]", "graph document must be a JSON object"),
            ('{"edges": []}', "graph document needs 'vertices' and 'edges'"),
            ('{"vertices": 2}', "graph document needs 'vertices' and 'edges'"),
            ('{"vertices": -1, "edges": []}', "vertex count must be nonnegative"),
        ],
        ids=["edges-int", "edges-null", "labels-int", "labels-string", "not-json", "array",
             "no-vertices", "no-edges", "negative-vertices"],
    )
    def test_non_list_fields_exit_2(self, tmp_path, capsys, text, message):
        """A graph document that is not a JSON object of well-typed fields exits 2."""
        path = tmp_path / "g.json"
        path.write_text(text)
        code, out, err = run_cli("cover", str(path), "--iterate", "0", capsys=capsys)
        assert (code, out) == (2, "")
        assert err == json.dumps({"error": "ValidationError", "message": message}) + "\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("cover", "figure8", "--iterate", "-1"), "--iterate must be nonnegative"),
            (("spectrum", "cycle:0"), "cycle parameter must be >= 1, got 0"),
        ],
        ids=["negative-iterate", "cycle-0"],
    )
    def test_out_of_range_parameter_exit_2(self, capsys, argv, message):
        code, out, err = run_cli(*argv, capsys=capsys)
        assert (code, out) == (2, "")
        assert err == json.dumps({"error": "ValidationError", "message": message}) + "\n"

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    @pytest.mark.parametrize("steps", [1, 2, 7])
    def test_tree_input_iterated_in_one_step(self, tmp_path, capsys, monkeypatch, fmt, steps):
        path = tmp_path / "path3.json"
        path.write_text('{"vertices": 3, "labels": ["a", "b", "c"], "edges": [[1, 0], [1, 2]]}')
        g = MultiGraph.from_json(path.read_text())
        for _ in range(steps):
            g = cli_mod.z2_cover(g, multigraph_mod.spanning_tree(g)).graph
        calls = []
        real = tower_mod.z2_cover

        def counting(*args, **kwargs):
            calls.append(args[0].num_vertices)
            return real(*args, **kwargs)

        monkeypatch.setattr(tower_mod, "z2_cover", counting)
        code, out, _ = run_cli(
            "cover", str(path), "--iterate", str(steps), "--format", fmt, capsys=capsys
        )
        assert code == 0
        assert out == (g.to_json() if fmt == "json" else g.to_dot())
        assert g.labels == tuple(name + "|" * steps for name in "abc")
        assert calls == [3]

    def test_tree_input_above_iterate_ceiling_exit_2(self, capsys, no_traversal):
        code, out, err = run_cli(
            "cover", "bouquet:0", "--iterate", str(tower_mod.MAX_TREE_LEVELS + 1), capsys=capsys
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "ValidationError",
            "message": "a rank-0 graph is its own cover; "
            f"--iterate must be at most {tower_mod.MAX_TREE_LEVELS}",
        }

    def test_tree_input_at_iterate_ceiling(self, capsys):
        code, out, _ = run_cli(
            "cover", "bouquet:0", "--iterate", str(tower_mod.MAX_TREE_LEVELS), capsys=capsys
        )
        assert code == 0
        assert MultiGraph.from_json(out).labels == ("0|" + "|" * (tower_mod.MAX_TREE_LEVELS - 1),)

    def test_roundtrips_through_file_input(self, tmp_path, capsys):
        out = tmp_path / "c6.json"
        assert run_cli("cover", "cycle:3", "--out", str(out)) == 0
        code, stdout, _ = run_cli("cover", str(out), "--iterate", "1", capsys=capsys)
        assert code == 0
        assert MultiGraph.from_json(stdout).num_vertices == 12


class TestCoverVerification:
    """Every cover the CLI builds is checked regular before anything is written."""

    DECK = "deck element 1 does not preserve incidence at edge 0"

    @pytest.mark.parametrize("steps", [1, 2])
    def test_irregular_step_exit_2_without_artifact(
        self, tmp_path, capsys, irregular_cover, steps
    ):
        irregular_cover(steps)
        out = tmp_path / "g.json"
        code, stdout, err = run_cli(
            "cover", "figure8", "--iterate", str(steps), "--out", str(out), capsys=capsys
        )
        assert (code, stdout) == (2, "")
        assert err == json.dumps({
            "error": "ValidationError", "message": f"the cover is not regular: {self.DECK}",
        }) + "\n"
        assert not out.exists()

    def test_rank_0_input_is_checked(self, tmp_path, capsys, irregular_cover):
        irregular_cover(1)
        path = tmp_path / "path3.json"
        path.write_text('{"vertices": 3, "edges": [[0, 1], [1, 2]]}\n')
        out = tmp_path / "g.dot"
        code, _, err = run_cli(
            "cover", str(path), "--iterate", "3", "--format", "dot", "--out", str(out),
            capsys=capsys,
        )
        assert code == 2
        assert json.loads(err) == {
            "error": "ValidationError",
            "message": "the cover is not regular: "
            "cover edge 0 projects to (0, 0), not to base edge 0",
        }
        assert not out.exists()

    def test_irregular_tower_level_exit_2_without_artifact(
        self, tmp_path, monkeypatch, capsys, irregular_cover
    ):
        monkeypatch.chdir(tmp_path)
        irregular_cover(1)
        code, out, err = run_cli("tower", "--seed", "figure8", "--levels", "2", capsys=capsys)
        assert (code, out) == (2, "")
        assert err == json.dumps({
            "error": "ValidationError", "message": f"the cover is not regular: {self.DECK}",
        }) + "\n"
        assert list(tmp_path.iterdir()) == []

    def test_iterate_tower_raises_on_an_irregular_level(self, irregular_cover):
        irregular_cover(1)
        with pytest.raises(ValidationError, match=f"^the cover is not regular: {self.DECK}$"):
            tower_mod.iterate_tower(figure8(), 2)

    def test_lemma_on_an_irregular_cover_exit_2(self, capsys, irregular_cover):
        irregular_cover(1)
        code, out, err = run_cli("cheeger", "figure8", "--method", "lemma", capsys=capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "ValidationError", "message": f"the cover is not regular: {self.DECK}",
        }


class TestCheegerCommand:
    def test_exact_on_cover_file(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        run_cli("cover", "figure8", "--out", str(out))
        code, stdout, _ = run_cli("cheeger", str(out), "--method", "exact", capsys=capsys)
        assert code == 0
        doc = json.loads(stdout)
        assert doc["value"] == "2"
        assert doc["certified"] == "exact"
        assert doc["witness"]["side_a"] == [0, 1]
        assert doc["witness"]["crossing_edges"] == 4

    def test_witness_reverifies(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        run_cli("cover", "figure8", "--out", str(out))
        code, stdout, _ = run_cli("cheeger", str(out), capsys=capsys)
        doc = json.loads(stdout)
        g = MultiGraph.from_json(out.read_text())
        cut = cut_ratio(g, doc["witness"]["side_a"])
        assert cut.crossing_edges == doc["witness"]["crossing_edges"]
        assert str(cut.ratio) == doc["value"]

    def test_lemma_reports_cover_context(self, capsys):
        code, stdout, _ = run_cli("cheeger", "figure8", "--method", "lemma", capsys=capsys)
        assert code == 0
        doc = json.loads(stdout)
        assert doc["value"] == "2"  # = 2 / #V(input)
        assert doc["cover_vertices"] == 4
        assert doc["cover_rank"] == 2

    @pytest.mark.parametrize("seed", ["bouquet:0", "path3.json"])
    def test_lemma_on_a_rank_0_input_exit_2(self, tmp_path, capsys, monkeypatch, seed):
        # A tree (here one vertex, or a 3-vertex path) lifts to the trivial cover.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "path3.json").write_text('{"vertices": 3, "edges": [[0, 1], [1, 2]]}\n')
        code, out, err = run_cli("cheeger", seed, "--method", "lemma", capsys=capsys)
        assert (code, out) == (2, "")
        assert err == json.dumps({
            "error": "ValidationError",
            "message": "trivial cover (rank 0) has no coordinate cut",
        }) + "\n"

    def test_sweep_method(self, capsys):
        code, stdout, _ = run_cli("cheeger", "cycle:6", "--method", "sweep", capsys=capsys)
        assert code == 0
        doc = json.loads(stdout)
        assert doc["method"] == "sweep"
        assert doc["certified"] == "upper_bound"

    def test_lemma_caps_the_cover_before_building_it(self, capsys):
        # 2^40 cover vertices: refused by the vertex cap, not allocated
        code, _, err = run_cli("cheeger", "bouquet:40", "--method", "lemma", capsys=capsys)
        assert code == 4
        assert json.loads(err)["error"] == "SizeCapError"

    def test_lemma_cover_count_past_the_int_to_str_digit_limit_exit_4(self, capsys):
        code, out, err = run_cli("cheeger", "bouquet:20000", "--method", "lemma", capsys=capsys)
        assert (code, out) == (4, "")
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "SizeCapError",
            "message": "cover would have 1 * 2^20000 vertices, above the cap 1000000",
        }

    def test_lemma_refuses_an_input_above_the_cap_before_traversal(
        self, monkeypatch, capsys, no_traversal
    ):
        monkeypatch.setattr(cli_mod, "DEFAULT_VERTEX_CAP", 10)
        code, _, err = run_cli("cheeger", "cycle:50", "--method", "lemma", capsys=capsys)
        assert code == 4
        assert json.loads(err) == {
            "error": "SizeCapError", "message": "graph has 50 vertices, above the cap 10",
        }

    def test_sweep_caps_the_dense_solve(self, capsys):
        code, _, err = run_cli("cheeger", "cycle:2049", "--method", "sweep", capsys=capsys)
        assert code == 5
        doc = json.loads(err)
        assert doc["error"] == "SpectrumError"
        assert doc["message"] == (
            "graph has 2049 vertices, above the dense-solver cap 2048"
        )

    def test_degenerate_input_exit_4(self, capsys):
        code, _, err = run_cli("cheeger", "figure8", capsys=capsys)
        assert code == 4
        assert json.loads(err)["error"] == "DegenerateCutError"

    def test_cap_respected(self, capsys):
        code, _, err = run_cli(
            "cheeger", "cycle:12", "--cheeger-cap", "8", capsys=capsys
        )
        assert code == 4
        assert json.loads(err)["error"] == "SizeCapError"

    def test_raised_cap_refused_above_the_search_ceiling(self, capsys):
        # 2^39 subsets: refused at once, not searched
        code, out, err = run_cli(
            "cheeger", "cycle:40", "--method", "exact", "--cheeger-cap", "40", capsys=capsys
        )
        assert (code, out, err.count("\n")) == (4, "", 1)
        assert json.loads(err) == {
            "error": "SizeCapError", "message": "brute force is limited to 36 vertices",
        }

    def test_builtin_too_large_to_build_exit_4(self):
        # bouquet:200000000 is one 3.2 GB edge array, refused at once under a
        # 3 GB address-space limit set on the child only, before any Python
        # object is made per edge.
        resource = pytest.importorskip("resource")
        limit = 3_000_000 * 1024
        result = subprocess.run(
            [sys.executable, "-m", "covertower.cli", "cheeger", "bouquet:200000000"],
            capture_output=True,
            text=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
            timeout=30,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert (result.returncode, result.stdout) == (4, "")
        assert "Traceback" not in result.stderr
        assert result.stderr.count("\n") == 1
        doc = json.loads(result.stderr)
        assert doc["error"] == "SizeCapError"
        assert doc["message"].startswith("Unable to allocate 2.98 GiB")


class TestSpectrumCommand:
    def test_combinatorial(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        run_cli("cover", "figure8", "--out", str(out))
        code, stdout, _ = run_cli("spectrum", str(out), capsys=capsys)
        assert code == 0
        doc = json.loads(stdout)
        assert [round(x, 9) for x in doc["eigenvalues"]] == [0.0, 4.0, 4.0, 8.0]
        assert doc["lambda1"] == 4.0

    def test_zero_eigenvalue_prints_as_zero(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        run_cli("cover", "figure8", "--out", str(out))
        for kind in ("combinatorial", "normalized"):
            code, stdout, _ = run_cli("spectrum", str(out), "--kind", kind, capsys=capsys)
            assert code == 0
            assert json.loads(stdout)["eigenvalues"][0] == 0.0
            assert '"eigenvalues": [\n    0.0,\n' in stdout

    def test_normalized(self, capsys):
        code, stdout, _ = run_cli(
            "spectrum", "cycle:4", "--kind", "normalized", capsys=capsys
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["kind"] == "normalized"
        assert max(doc["eigenvalues"]) <= 2.0 + 1e-9

    def test_isolated_vertex_normalized_exit_5(self, tmp_path, capsys):
        graph_file = tmp_path / "iso.json"
        graph_file.write_text('{"schema": 1, "vertices": 1, "edges": []}')
        code, _, err = run_cli(
            "spectrum", str(graph_file), "--kind", "normalized", capsys=capsys
        )
        assert code == 5
        assert json.loads(err)["error"] == "SpectrumError"

    def test_cap_exit_5(self, capsys):
        code, _, err = run_cli(
            "spectrum", "cycle:10", "--spectrum-cap", "4", capsys=capsys
        )
        assert code == 5


class TestBuiltinOrFile:
    """A refused builtin parameter names a file when one exists; an accepted one never does."""

    def test_file_with_a_builtin_prefix_is_read(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cycle:3.json").write_text(theta().to_json())
        code, stdout, _ = run_cli("spectrum", "cycle:3.json", capsys=capsys)
        assert code == 0
        assert stdout == run_cli("spectrum", "theta", capsys=capsys)[1]
        assert json.loads(stdout)["eigenvalues"] == [0.0, 6.0]
        assert run_cli("tower", "--seed", "cycle:3.json", "--levels", "1",
                       "--format", "json", "--out", "t") == 0
        doc = json.loads((tmp_path / "t.json").read_text())
        assert doc["seed"] == "cycle:3.json"
        assert [row["vertices"] for row in doc["levels"]] == [2, 8]

    def test_refused_parameter_without_a_file_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli("spectrum", "cycle:3.json", capsys=capsys)
        assert code == 2
        assert json.loads(err) == {
            "error": "ValidationError", "message": "bad cycle parameter '3.json'",
        }

    def test_accepted_builtin_wins_over_a_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cycle:3").write_text(theta().to_json())
        code, stdout, _ = run_cli("spectrum", "cycle:3", capsys=capsys)
        assert code == 0
        assert [round(x, 9) for x in json.loads(stdout)["eigenvalues"]] == [0.0, 3.0, 3.0]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("cheeger", "two-triangles.json", "--method", "sweep"),
         "sweep cut requires a connected graph"),
        (("cheeger", "two-triangles.json", "--method", "exact"),
         "cheeger constant of a disconnected graph degenerates to 0; refusing the trivial answer"),
        (("tower", "--seed", "two-triangles.json", "--levels", "1"),
         "tower seed must be a nonempty connected graph"),
        (("cover", "two-triangles.json"),
         "the input graph has 2 components"),
        (("cheeger", "two-triangles.json", "--method", "lemma"),
         "the input graph has 2 components"),
    ],
    ids=["sweep", "exact", "tower", "cover", "lemma"],
)
def test_disconnected_input_exit_2(tmp_path, capsys, monkeypatch, argv, message):
    """Two disjoint triangles: the sweep, the exhaustive search, the tower's
    seed check and the cover step (whose 6 * 2^1 count is within the cap)
    each refuse them with one JSON line and no artifact."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "two-triangles.json").write_text(
        '{"vertices": 6, "edges": [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]]}\n'
    )
    code, out, err = run_cli(*argv, capsys=capsys)
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": "DisconnectedGraphError", "message": message}) + "\n"
    assert [p.name for p in tmp_path.iterdir()] == ["two-triangles.json"]


HUGE = str(2**60 - 1)


@pytest.mark.parametrize(
    "argv",
    [
        ("cover", "huge.json", "--vertex-cap", str(10**20)),
        ("tower", "--seed", "huge.json", "--levels", "0", "--vertex-cap", str(10**20)),
        ("spectrum", "huge.json"),
        ("cover", f"cycle:{HUGE}", "--vertex-cap", str(10**20)),
    ],
    ids=["cover", "tower", "spectrum", "cycle"],
)
def test_vertex_count_numpy_cannot_index_exit_4(tmp_path, capsys, monkeypatch, argv):
    """2^60 - 1 vertices: an int64 range over them is above numpy's size
    limit.  The graph is refused as it is built, with one JSON line and no
    artifact, even by the commands whose own cap would refuse it."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "huge.json").write_text(f'{{"vertices": {HUGE}, "edges": []}}')
    code, out, err = run_cli(*argv, capsys=capsys)
    assert (code, out) == (4, "")
    assert err == json.dumps({
        "error": "SizeCapError",
        "message": f"graph has {HUGE} vertices, above the limit {2**58 - 1}",
    }) + "\n"
    assert [p.name for p in tmp_path.iterdir()] == ["huge.json"]


@pytest.mark.parametrize("command", [("cover",), ("cheeger", "--method", "lemma")],
                         ids=["cover", "lemma"])
@pytest.mark.parametrize(
    "graph, count",
    [("cycle:600000", "600000 * 2^1"), ("eleven-loops-each.json", "2 * 2^21")],
    ids=["connected", "disconnected"],
)
def test_cover_above_the_cap_refused_before_the_walk(
    tmp_path, capsys, monkeypatch, no_traversal, command, graph, count
):
    """The cover step counts #V * 2^(#E - #V + 1) before it walks its input.

    The count is exact for cycle:600000.  Two vertices with 11 loops each are
    disconnected, so their count is low, yet above the cap: the size check
    comes first, and the input exits 4, not 2.
    """
    monkeypatch.chdir(tmp_path)
    edges = [[0, 0]] * 11 + [[1, 1]] * 11
    (tmp_path / "eleven-loops-each.json").write_text(json.dumps({"vertices": 2, "edges": edges}))
    code, out, err = run_cli(command[0], graph, *command[1:], capsys=capsys)
    assert (code, out) == (4, "")
    assert err == json.dumps({
        "error": "SizeCapError",
        "message": f"cover would have {count} vertices, above the cap 1000000",
    }) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("tower", "--seed", "figure8", "--levels", "1", "--spectrum-cap", "0", "--out", "x"),
        ("cover", "figure8", "--vertex-cap", "0"),
        ("cheeger", "theta", "--cheeger-cap", "0"),
        ("cheeger", "theta", "--method", "lemma", "--cheeger-cap", "-1"),
        ("spectrum", "theta", "--spectrum-cap", "0"),
    ],
    ids=["tower", "cover", "cheeger-exact", "cheeger-lemma", "spectrum"],
)
def test_non_positive_cap_exit_2(tmp_path, capsys, monkeypatch, argv):
    """Every command refuses a cap <= 0 with tower's message, before it
    reads its input or writes anything."""

    def refuse(name):
        raise AssertionError(f"read the input {name!r}")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli_mod, "resolve_graph_input", refuse)
    code, out, err = run_cli(*argv, capsys=capsys)
    assert (code, out) == (2, "")
    line = json.dumps({"error": "ValidationError", "message": "caps must be positive"})
    assert err == line + "\n"
    assert list(tmp_path.iterdir()) == []


def run_fresh(*argv):
    """The same command line in a new interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "covertower.cli", *argv], capture_output=True, text=True
    )


class TestRepeatedMainCalls:
    """`main` reuses one parser; nothing carries over from call to call."""

    def test_nothing_carries_over_between_calls(self, tmp_path, capsys):
        code, out, err = run_cli(
            "tower", "--seed", "bouquet:3", "--levels", "3", "--vertex-cap", "64",
            "--strict", "--format", "svg", "--out", str(tmp_path / "strict"), capsys=capsys,
        )
        assert (code, out, json.loads(err)["error"]) == (3, "", "Truncated")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["strict.svg"]

        # No --vertex-cap, --strict or --format from the call before.
        (tmp_path / "in").mkdir()
        (tmp_path / "fresh").mkdir()
        argv = ("tower", "--seed", "figure8", "--levels", "2", "--out")
        assert run_cli(*argv, str(tmp_path / "in" / "r")) == 0
        assert sorted(p.name for p in (tmp_path / "in").iterdir()) == ["r.csv", "r.json", "r.svg"]
        assert run_fresh(*argv, str(tmp_path / "fresh" / "r")).returncode == 0
        for ext in ("json", "csv", "svg"):
            in_process = (tmp_path / "in" / f"r.{ext}").read_bytes()
            assert in_process == (tmp_path / "fresh" / f"r.{ext}").read_bytes(), ext
        assert json.loads((tmp_path / "in" / "r.json").read_text())["vertex_cap"] == 1_000_000
        capsys.readouterr()

        with pytest.raises(SystemExit) as exc:
            main(["tower", "--levels", "x"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err

        for argv in (
            ("cheeger", "theta"),
            ("cover", "theta", "--iterate", "2"),
            ("spectrum", "theta", "--kind", "normalized"),
        ):
            code, out, err = run_cli(*argv, capsys=capsys)
            fresh = run_fresh(*argv)
            assert (code, out, err) == (0, fresh.stdout, ""), argv
            assert fresh.returncode == 0, argv

    def test_parser_built_once_per_process(self, monkeypatch):
        build_parser = cli_mod.build_parser
        built = []

        def counting_build_parser():
            built.append(build_parser())
            return built[-1]

        monkeypatch.setattr(cli_mod, "build_parser", counting_build_parser)
        cli_mod._parser.cache_clear()
        for argv in (["spectrum", "theta"], ["cheeger", "theta"], ["cover", "figure8"]) * 3:
            assert run_cli(*argv) == 0
        assert len(built) == 1
        assert cli_mod._parser() is built[0]
        assert build_parser() is not build_parser()


class TestEntryPoint:
    def test_module_execution(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "covertower.cli", "cover", "figure8"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert MultiGraph.from_json(result.stdout).num_vertices == 4

    @pytest.mark.parametrize("module", ["covertower.cli", "covertower"])
    def test_module_runs_without_runpy_warning(self, module):
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", module, "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("usage: covertower")
        assert "RuntimeWarning" not in result.stderr

    def test_missing_command_exits_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "covertower.cli"], capture_output=True
        )
        assert result.returncode == 2
