"""Tower iteration: growth bookkeeping, truncation, analysis, serialization."""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertower import (
    DisconnectedGraphError,
    SizeCapError,
    ValidationError,
    build_graph,
    iterate_tower,
    spanning_tree,
    verify_regular_cover,
    z2_cover,
)
import covertower.cheeger as cheeger_mod
import covertower.spectrum as spectrum_mod
import covertower.tower as tower_mod
from covertower.seeds import builtin_seed
from covertower.tower import (
    LEVEL_FIELDS,
    MAX_TREE_LEVELS,
    TowerLevel,
    TowerReport,
    count_texts,
    report_json_text,
    report_to_csv_text,
    report_to_json_dict,
)

from conftest import (
    bouquet,
    cycle,
    dense_level_oracle,
    figure8,
    path,
    random_connected_multigraph,
    report_csv_oracle,
    report_json_oracle,
    theta,
)


def symbolic_bouquet_counts(levels: int) -> list[tuple[int, int]]:
    """Independent recursion for the two-loop bouquet: V' = V * 2^(V+1)."""
    counts = [(1, 2)]
    for _ in range(levels):
        v, e = counts[-1]
        rank = e - v + 1
        counts.append((v * 2**rank, e * 2**rank))
    return counts


class TestFigure8Tower:
    def test_levels_2_counts(self):
        report = iterate_tower(figure8(), 2, 10**6, seed_description="figure8")
        assert [row.vertices for row in report.levels] == [1, 4, 128]
        assert [row.edges for row in report.levels] == [2, 8, 256]
        assert not report.truncated
        assert [row.rank for row in report.levels] == [2, 5, 129]

    def test_counts_match_symbolic_recursion(self):
        report = iterate_tower(figure8(), 2, 10**6)
        expected = symbolic_bouquet_counts(2)
        assert [
            (row.vertices, row.edges) for row in report.levels
        ] == expected

    def test_edge_count_twice_vertex_count(self):
        report = iterate_tower(figure8(), 2, 10**6)
        for row in report.levels:
            assert row.edges == 2 * row.vertices

    def test_levels_3_truncates_with_predicted_counts(self):
        report = iterate_tower(figure8(), 3, 10**6, seed_description="figure8")
        assert report.truncated
        assert report.truncated_level == 3
        predicted = report.levels[3]
        assert not predicted.constructed
        assert predicted.vertices == 128 * 2**129
        assert predicted.edges == 256 * 2**129
        assert predicted.vertices == symbolic_bouquet_counts(3)[3][0]
        assert predicted.lemma_bound == Fraction(2, 128)

    def test_lemma_bounds_sequence(self):
        report = iterate_tower(figure8(), 3, 10**6)
        bounds = [row.lemma_bound for row in report.levels]
        assert bounds == [None, Fraction(2), Fraction(1, 2), Fraction(1, 64)]

    def test_cheeger_values(self):
        report = iterate_tower(figure8(), 2, 10**6)
        level0, level1, level2 = report.levels
        assert level0.cheeger_value is None  # no bipartition of one vertex
        assert level1.cheeger_value == 2
        assert level1.cheeger_certified == "exact"
        assert level2.cheeger_certified == "upper_bound"
        assert level2.cheeger_value <= Fraction(1, 2)

    def test_lambda1_strictly_decreasing(self):
        report = iterate_tower(figure8(), 2, 10**6)
        lam1 = report.levels[1].lambda1_combinatorial
        lam2 = report.levels[2].lambda1_combinatorial
        assert lam1 == pytest.approx(4.0, abs=1e-9)
        assert lam2 < lam1 - 1e-9

    def test_growth_factor_is_two_to_rank(self):
        report = iterate_tower(figure8(), 3, 10**6)
        for prev, nxt in zip(report.levels, report.levels[1:]):
            factor = 2**prev.rank
            assert nxt.vertices == prev.vertices * factor
            assert nxt.edges == prev.edges * factor


class TestOtherSeeds:
    def test_triangle_tower_doubles_cycles(self):
        report = iterate_tower(cycle(3), 3, 10**6, seed_description="cycle:3")
        assert [row.vertices for row in report.levels] == [3, 6, 12, 24]
        assert [row.rank for row in report.levels] == [1, 1, 1, 1]
        for row in report.levels:
            assert row.edges == row.vertices  # cycles stay cycles

    def test_triangle_tower_lemma_tight_where_exact_known(self):
        report = iterate_tower(cycle(3), 3, 10**6)
        for row in report.levels[1:]:
            if row.cheeger_certified == "exact":
                assert row.cheeger_value == row.lemma_bound

    def test_theta_tower_one_step(self):
        report = iterate_tower(theta(), 1, 10**6, seed_description="theta")
        assert report.levels[1].vertices == 8  # 2 * 2^2
        assert report.levels[1].edges == 12
        assert report.levels[1].lemma_bound == Fraction(1)

    def test_tree_seed_never_grows(self):
        report = iterate_tower(path(3), 4, 100)
        assert [row.vertices for row in report.levels] == [3] * 5
        assert not report.truncated
        for row in report.levels[1:]:
            assert row.lemma_bound is None  # rank-0 covers carry no fiber cut

    def test_levels_zero_reports_seed_only(self):
        report = iterate_tower(figure8(), 0, 10**6)
        assert len(report.levels) == 1
        assert report.levels[0].vertices == 1


class TestTreeSeed:
    """A rank-0 level is its own cover: analysed once, bounded in length."""

    def test_analysed_once_and_repeated(self, monkeypatch):
        calls = []
        original = tower_mod._analyze_level

        def counting(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(tower_mod, "_analyze_level", counting)
        report = iterate_tower(path(3), 50, 100)
        assert calls == [0]
        assert [row.level for row in report.levels] == list(range(51))
        first = report.levels[0]
        for row in report.levels:
            assert dataclasses.replace(row, level=0) == first

    def test_levels_above_the_ceiling_rejected_before_analysis(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("analysed a level")

        monkeypatch.setattr(tower_mod, "_analyze_level", refuse)
        with pytest.raises(ValidationError, match=f"at most {MAX_TREE_LEVELS}"):
            iterate_tower(path(3), MAX_TREE_LEVELS + 1, 100)

    def test_ceiling_itself_accepted(self):
        report = iterate_tower(path(3), MAX_TREE_LEVELS, 100)
        assert len(report.levels) == MAX_TREE_LEVELS + 1
        assert not report.truncated

    def test_single_vertex_seed_has_no_lambda1(self):
        # One vertex without loops has no normalized Laplacian; the row
        # reports no lambda1 rather than failing.
        report = iterate_tower(bouquet(0), 3, 100)
        assert [row.vertices for row in report.levels] == [1] * 4
        for row in report.levels:
            assert row.lambda1_combinatorial is None
            assert row.lambda1_normalized is None
            assert row.cheeger_value is None

    def test_ceiling_ignores_seeds_of_positive_rank(self):
        report = iterate_tower(figure8(), MAX_TREE_LEVELS + 1, 100)
        assert report.truncated_level == 2


class TestBlockSpectra:
    """Levels above the seed take their spectra from the character blocks."""

    @pytest.mark.parametrize("seed", [figure8(), theta()], ids=["figure8", "theta"])
    def test_no_dense_laplacian_above_the_seed(self, seed, monkeypatch):
        # Every spectrum is built from character blocks; a level's blocks
        # are base-sized, the base being the level below.
        original = spectrum_mod.character_laplacians
        sizes = []

        def recording(base, cotree, kinds):
            sizes.append(base.num_vertices)
            return original(base, cotree, kinds)

        def refuse(g, kind=spectrum_mod.COMBINATORIAL):
            raise AssertionError("dense Laplacian built in the tower")

        monkeypatch.setattr(spectrum_mod, "character_laplacians", recording)
        monkeypatch.setattr(spectrum_mod, "laplacian", refuse)
        report = iterate_tower(seed, 2, 10**6)
        assert sorted(set(sizes)) == [row.vertices for row in report.levels[:2]]
        assert report.levels[2].vertices >= 128
        for row in report.levels[1:]:
            assert row.lambda1_combinatorial is not None
            assert row.lambda1_normalized is not None
        assert report.levels[2].cheeger_method in ("sweep", "lemma_cut")

    def test_one_block_assembly_per_level(self, monkeypatch):
        # both kinds of a level are derived from one integer stack
        calls = []
        original = spectrum_mod.character_laplacians

        def recording(base, cotree, kinds):
            calls.append((base.num_vertices, len(cotree), tuple(kinds)))
            return original(base, cotree, kinds)

        monkeypatch.setattr(spectrum_mod, "character_laplacians", recording)
        iterate_tower(figure8(), 2, 10**6)
        both = (spectrum_mod.COMBINATORIAL, spectrum_mod.NORMALIZED)
        assert calls == [(1, 0, both), (1, 2, both), (4, 5, both)]

    def test_two_stacked_eigensolves_per_level(self, monkeypatch):
        shapes = []
        original = spectrum_mod.symmetric_eigensystem

        def recording(matrix, vectors=True):
            shapes.append(np.shape(matrix))
            return original(matrix, vectors)

        monkeypatch.setattr(spectrum_mod, "symmetric_eigensystem", recording)
        iterate_tower(figure8(), 2, 10**6)
        # the seed's one 1 x 1 block, then 2^2 blocks of figure8 and 2^5 of Gamma1
        assert shapes == [(1, 1, 1)] * 2 + [(4, 1, 1)] * 2 + [(32, 4, 4)] * 2

    def test_matches_the_dense_path_on_tower_spectral_covers(self, monkeypatch):
        sweeps = []
        original = cheeger_mod.sweep_cut

        def recording(g, vectors):
            sweeps.append(original(g, vectors))
            return sweeps[-1]

        monkeypatch.setattr(cheeger_mod, "sweep_cut", recording)
        rng = random.Random("block-path-oracle")
        for _ in range(200):
            seed = random_connected_multigraph(rng, 2, 6)
            row = iterate_tower(seed, 1).levels[1]
            oracle = dense_level_oracle(z2_cover(seed, spanning_tree(seed)))
            assert len(sweeps) == 1
            assert sweeps.pop().value == oracle.sweep
            assert row.cheeger_value == min(oracle.sweep, row.lemma_bound)
            assert row.lambda1_combinatorial == pytest.approx(
                oracle.lambda1_combinatorial, rel=1e-9
            )
            assert row.lambda1_normalized == pytest.approx(oracle.lambda1_normalized, rel=1e-9)


class TestTraversalBudget:
    def test_component_count_runs_once_per_connectivity_check(self, monkeypatch):
        import covertower.multigraph as multigraph

        calls = []
        original = multigraph.component_count

        def counting(g):
            calls.append(g.num_vertices)
            return original(g)

        monkeypatch.setattr(multigraph, "component_count", counting)
        iterate_tower(figure8(), 2, 10**6)
        # the seed check, validate_for at levels 0 and 1 (G minus its
        # cotree) and the level-2 sweep; the level-1 exhaustive search
        # reads disconnection off its zero minimum
        assert calls == [1, 1, 4, 128]

    def test_only_covered_graphs_are_traversed(self, monkeypatch):
        import covertower.multigraph as multigraph

        trees = []
        original_tree = multigraph.spanning_tree

        def counting_tree(g):
            trees.append(g.num_vertices)
            return original_tree(g)

        monkeypatch.setattr(multigraph, "spanning_tree", counting_tree)
        monkeypatch.setattr(tower_mod, "spanning_tree", counting_tree)
        iterate_tower(figure8(), 2, 10**6)
        # spanning_tree is the only walk vertex by vertex, and every
        # connectivity check counts components in numpy: only the graphs
        # that get covered are walked
        assert trees == [1, 4]


class TestMemoryBudget:
    def test_bouquet3_level2_peak(self):
        # The north-star level: 1,048,576 vertices and 3,145,728 edges, above
        # both analysis caps, so the peak is its construction and lemma cut:
        # the 48 MiB edge array, written in place, and about 10 MiB besides.
        tracemalloc.start()
        try:
            report = iterate_tower(bouquet(3), 2, 2_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.levels[2].vertices == 1_048_576
        assert peak < 65 * 2**20

    def test_regular_cover_check_of_bouquet3_level2(self):
        # The check reads the 48 MiB level in blocks of 2^16 edges, about
        # 2.5 MiB of temporaries; the whole-array comparison took 79 MiB.
        level1 = tower_mod.homology_cover(bouquet(3), 2_000_000).graph
        cover = tower_mod.homology_cover(level1, 2_000_000)
        tracemalloc.start()
        try:
            report = verify_regular_cover(cover)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cover.graph.num_vertices == 1_048_576
        assert report.all_ok
        assert peak < 4 * 2**20


class TestValidation:
    def test_disconnected_seed_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            iterate_tower(build_graph(2, []), 1, 100)

    def test_empty_seed_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            iterate_tower(build_graph(0, []), 1, 100)

    def test_negative_levels_rejected(self):
        with pytest.raises(ValidationError):
            iterate_tower(figure8(), -1, 100)

    def test_nonpositive_cap_rejected(self):
        with pytest.raises(ValidationError):
            iterate_tower(figure8(), 1, 0)

    def test_cheeger_cap_above_the_search_ceiling_rejected_before_work(self, monkeypatch):
        import covertower.multigraph as multigraph

        assert iterate_tower(figure8(), 1, cheeger_cap=36).cheeger_cap == 36

        def refuse(g):
            raise AssertionError("traversed the seed")

        monkeypatch.setattr(multigraph, "component_count", refuse)
        with pytest.raises(ValidationError, match="cheeger cap is above 36 vertices"):
            iterate_tower(figure8(), 1, cheeger_cap=37)

    def test_seed_above_cap_rejected_before_traversal(self, monkeypatch):
        import covertower.multigraph as multigraph

        def refuse(g):
            raise AssertionError("traversed the seed")

        monkeypatch.setattr(multigraph, "component_count", refuse)
        with pytest.raises(SizeCapError, match="seed has 12 vertices, above the cap 11"):
            iterate_tower(cycle(12), 1, 11)


class TestSerialization:
    def test_json_csv_numeric_consistency(self):
        report = iterate_tower(figure8(), 2, 10**6, seed_description="figure8")
        doc = report_to_json_dict(report)
        rows = list(csv.DictReader(io.StringIO(report_to_csv_text(report))))
        assert len(rows) == len(doc["levels"])
        for json_row, csv_row in zip(doc["levels"], rows):
            for key, value in json_row.items():
                cell = csv_row[key]
                if value is None:
                    assert cell == ""
                elif isinstance(value, bool):
                    assert cell == ("true" if value else "false")
                elif isinstance(value, float):
                    assert float(cell) == value
                else:
                    assert str(value) == cell

    def test_level_fields_are_the_json_keys_and_csv_header(self):
        report = iterate_tower(figure8(), 3, 10**6)
        header = next(csv.reader(io.StringIO(report_to_csv_text(report))))
        assert tuple(header) == LEVEL_FIELDS
        assert all(tuple(row) == LEVEL_FIELDS for row in report_to_json_dict(report)["levels"])
        assert LEVEL_FIELDS == (
            "level",
            "constructed",
            "vertices",
            "edges",
            "rank",
            "lemma_bound",
            "cheeger_value",
            "cheeger_certified",
            "cheeger_method",
            "lambda1_combinatorial",
            "lambda1_normalized",
        )

    def test_truncated_row_leaves_the_analysis_fields_at_none(self):
        row = TowerLevel(
            level=3,
            constructed=False,
            vertices=128 * 2**129,
            edges=256 * 2**129,
            rank=128 * 2**129 + 1,
            lemma_bound=Fraction(1, 64),
        )
        analysis = LEVEL_FIELDS[LEVEL_FIELDS.index("lemma_bound") + 1 :]
        assert analysis and all(getattr(row, key) is None for key in analysis)
        assert iterate_tower(figure8(), 3, 10**6).levels[3] == row

    def test_big_integers_survive_json(self):
        report = iterate_tower(figure8(), 3, 10**6)
        text = json.dumps(report_to_json_dict(report))
        assert json.loads(text)["levels"][3]["vertices"] == 128 * 2**129

    def test_timings_excluded_by_default(self):
        report = iterate_tower(figure8(), 1, 10**6)
        doc = report_to_json_dict(report)
        assert all("elapsed_seconds" not in level for level in doc["levels"])

    def test_repeated_runs_identical(self):
        first = iterate_tower(figure8(), 2, 10**6, seed_description="figure8")
        second = iterate_tower(figure8(), 2, 10**6, seed_description="figure8")
        assert json.dumps(report_to_json_dict(first)) == json.dumps(
            report_to_json_dict(second)
        )
        assert report_to_csv_text(first) == report_to_csv_text(second)

    def test_fraction_rendering(self):
        report = iterate_tower(figure8(), 2, 10**6)
        doc = report_to_json_dict(report)
        assert doc["levels"][1]["lemma_bound"] == "2"
        assert doc["levels"][2]["lemma_bound"] == "1/2"


CROSSOVER = tower_mod._DECIMAL_MIN_SHIFT
has_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)


def str_error(*values: int) -> str:
    """The message of the ValueError str() raises on the first value past the digit limit."""
    for value in values:
        try:
            str(value)
        except ValueError as exc:
            return str(exc)
    raise AssertionError("no value is past the digit limit")


def counts_report(vertices, edges, rank, **fields) -> TowerReport:
    """A one-row report: a truncated row with the given counts and fields."""
    row = TowerLevel(
        level=1, constructed=False, vertices=vertices, edges=edges, rank=rank,
        lemma_bound=Fraction(1, 4), **fields,
    )
    return TowerReport("custom", 1, 10**6, 26, 2048, 1, (row,))


class TestCountTexts:
    """count_texts equals str() on each count, whichever path it takes."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(0, 2**40),
        e=st.integers(0, 2**40),
        shift=st.integers(0, 2 * CROSSOVER),
        same=st.booleans(),
        rank_offset=st.sampled_from([0, 0, 0, 1, -1, 2**CROSSOVER]),
    )
    def test_matches_str(self, n, e, shift, same, rank_offset):
        # Odd and even n and e; n = e is a rank-1 row; a nonzero offset
        # breaks rank = E - V + 1, which must fall back to str().
        if same:
            e = n
        vertices, edges = n << shift, e << shift
        rank = (e - n << shift) + 1 + rank_offset
        assert count_texts(vertices, edges, rank) == (str(vertices), str(edges), str(rank))

    @pytest.mark.parametrize(
        "shift, rank_offset, decimal_path",
        [(CROSSOVER - 1, 0, False), (CROSSOVER, 0, True), (CROSSOVER, 1, False)],
        ids=["below-crossover", "at-crossover", "rank-not-E-V+1"],
    )
    def test_decimal_path_only_at_the_crossover_with_the_rank_identity(
        self, monkeypatch, shift, rank_offset, decimal_path
    ):
        contexts = []
        make_context = tower_mod.decimal.Context

        def counting_context(*args, **kwargs):
            contexts.append(make_context(*args, **kwargs))
            return contexts[-1]

        monkeypatch.setattr(tower_mod.decimal, "Context", counting_context)
        vertices, edges = 8 << shift, 17 << shift
        rank = edges - vertices + 1 + rank_offset
        assert count_texts(vertices, edges, rank) == (str(vertices), str(edges), str(rank))
        assert len(contexts) == decimal_path

    def test_no_int_subclass_takes_the_decimal_path(self):
        big = 1 << CROSSOVER
        report = counts_report(True, big, big)
        assert report_json_text(report_to_json_dict(report)) == report_json_oracle(report)
        assert report_to_csv_text(report) == report_csv_oracle(report)

    @has_digit_limit
    @pytest.mark.parametrize("past", ["all", "edges-and-rank"])
    def test_writers_raise_str_error_past_the_digit_limit(self, past):
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            # 2^shift has exactly 5000 digits, so 16 * 2^shift has more.
            shift = next(k for k in range(16_500, 16_700) if len(str(1 << k)) == 5000)
            sys.set_int_max_str_digits(5000)
            n = 1 if past == "edges-and-rank" else 16
            vertices, edges = n << shift, 16 << shift
            report = counts_report(vertices, edges, edges - vertices + 1)
            expected = str_error(vertices, edges)
            for write in (
                lambda: report_json_text(report_to_json_dict(report)),
                lambda: report_to_csv_text(report),
            ):
                with pytest.raises(ValueError) as exc:
                    write()
                assert str(exc.value) == expected
            ok = counts_report(1 << shift, 1 << shift, 1)
            assert report_json_text(report_to_json_dict(ok)) == report_json_oracle(ok)
            assert report_to_csv_text(ok) == report_csv_oracle(ok)
        finally:
            sys.set_int_max_str_digits(limit)

    @has_digit_limit
    def test_lifted_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            vertices, edges = 8 << 200_000, 17 << 200_000
            rank = edges - vertices + 1
            assert count_texts(vertices, edges, rank) == (str(vertices), str(edges), str(rank))
            report = counts_report(vertices, edges, rank)
            assert report_json_text(report_to_json_dict(report)) == report_json_oracle(report)
            assert report_to_csv_text(report) == report_csv_oracle(report)
        finally:
            sys.set_int_max_str_digits(limit)

    @has_digit_limit
    def test_a_python_without_the_digit_limit(self, monkeypatch):
        # Python 3.10.0-3.10.6 have no get_int_max_str_digits and no limit.
        vertices, edges = 8 << 20_000, 17 << 20_000
        rank = edges - vertices + 1
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = str(vertices), str(edges), str(rank)
        finally:
            sys.set_int_max_str_digits(limit)
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert count_texts(vertices, edges, rank) == expected


GOLDEN_TOWERS = json.loads((Path(__file__).parent / "golden_towers.json").read_text())
SEED_SHAPES = {"tower-spectral": (2, 6), "tower-build": (8, 10)}


class TestReportWriters:
    """The JSON writer equals json.dumps(indent=2) and the CSV writer csv.writer."""

    def assert_writers_match(self, report):
        assert report_json_text(report_to_json_dict(report)) == report_json_oracle(report)
        assert report_to_csv_text(report) == report_csv_oracle(report)

    @pytest.mark.parametrize("case", sorted(GOLDEN_TOWERS))
    def test_golden_cases(self, case):
        seed, levels = case.split()
        self.assert_writers_match(
            iterate_tower(builtin_seed(seed), int(levels), seed_description=seed)
        )

    @pytest.mark.parametrize("shape", sorted(SEED_SHAPES))
    def test_random_seeds(self, shape):
        rng = random.Random(f"writers/{shape}")
        for i in range(100):
            seed = random_connected_multigraph(rng, *SEED_SHAPES[shape])
            report = iterate_tower(seed, 2, seed_description=f"{shape}-{i}.json")
            assert report.truncated
            self.assert_writers_match(report)

    def test_big_truncated_row(self):
        report = iterate_tower(bouquet(10), 2, seed_description="bouquet:10")
        assert len(str(report.levels[-1].vertices)) == 2778
        self.assert_writers_match(report)

    def test_seed_path_with_escapes(self):
        name = 'd\u00efr/se\u0301ed "\u00e9\u2028\U0001f600" \\ \t\x01.json'
        self.assert_writers_match(iterate_tower(theta(), 1, seed_description=name))

    def test_rows_of_every_value_kind(self):
        rows = (
            TowerLevel(0, True, 1, 2, 2, None, Fraction(3, 7), "exact", "brute_force", 0.5, -0.0),
            TowerLevel(1, False, None, True, False, Fraction(-1, 3), None, None, None,
                       float("nan"), float("inf")),
            TowerLevel(2, True, 4, 8, 5, Fraction(2), Fraction(0), "upper_bound", "sweep",
                       1e22, 1.2345678901234567e-300),
            TowerLevel(True, False, 3 << CROSSOVER, 5 << CROSSOVER, (2 << CROSSOVER) + 1,
                       Fraction(1, 2), None, None, None, float("-inf"), 1 / 3),
        )
        report = TowerReport('q"\\', 3, 10**6, 26, 2048, None, rows)
        self.assert_writers_match(report)
        self.assert_writers_match(dataclasses.replace(report, levels=()))

    @settings(max_examples=200, deadline=None)
    @given(method=st.text(), certified=st.text(st.sampled_from(',"\r\n ab\t')))
    def test_csv_quoting(self, method, certified):
        report = counts_report(
            8 << CROSSOVER, 17 << CROSSOVER, (9 << CROSSOVER) + 1,
            cheeger_method=method, cheeger_certified=certified,
        )
        self.assert_writers_match(report)
