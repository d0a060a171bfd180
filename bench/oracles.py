"""Independent checks of CLI outputs.

Nothing here imports covertower: every expected value comes from a closed
form, from numpy's LAPACK eigensolver, or from an enumeration written
differently from the program's.  Each check returns a list of problems; an
empty list means the output passed.
"""
from __future__ import annotations

import csv
import io
import math
from fractions import Fraction

import numpy as np

from inputs import Graph

LAMBDA1_REL_TOL = 1e-9
INEQUALITY_TOL = 1e-9


# -- closed forms ------------------------------------------------------------


def expected_tower_rows(graph: Graph, levels: int, vertex_cap: int) -> list[dict]:
    """Counts and lemma bounds of every report row, from #V' = #V 2^rank.

    The homology cover of a connected graph is connected, so each level has
    rank #E - #V + 1; the first level above the cap is the truncated row.
    """
    n, edges = graph
    v, e = n, len(edges)
    rows = [{"level": 0, "constructed": True, "vertices": v, "edges": e,
             "rank": e - v + 1, "lemma_bound": None}]
    for level in range(1, levels + 1):
        r = e - v + 1
        v_next, e_next = v << r, e << r
        rows.append({
            "level": level,
            "constructed": v_next <= vertex_cap,
            "vertices": v_next,
            "edges": e_next,
            "rank": e_next - v_next + 1,
            "lemma_bound": str(Fraction(2, v)) if r >= 1 else None,
        })
        if v_next > vertex_cap:
            break
        v, e = v_next, e_next
    return rows


# -- independent constructions ---------------------------------------------


def homology_cover(graph: Graph) -> Graph:
    """The Z/2-homology cover, built over a union-find tree taken in reverse
    edge order (the program uses BFS).  Its isomorphism type, hence its
    spectrum, does not depend on the tree."""
    n, edges = graph
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree, cotree = [], []
    for u, v in reversed(edges):
        ru, rv = find(u), find(v)
        if ru == rv:
            cotree.append((u, v))
        else:
            parent[ru] = rv
            tree.append((u, v))
    sheets = 1 << len(cotree)
    a = np.arange(sheets)
    us = [u * sheets + a for u, _ in tree + cotree]
    vs = [v * sheets + a for _, v in tree]
    vs += [v * sheets + (a ^ (1 << j)) for j, (_, v) in enumerate(cotree)]
    pairs = zip(np.concatenate(us).tolist(), np.concatenate(vs).tolist())
    return n * sheets, list(pairs)


def lambda1_pair(graph: Graph) -> tuple[float, float]:
    """(combinatorial, normalized) lambda1 of a connected graph via eigvalsh.

    A loop adds 2 to its diagonal adjacency entry and to the degree."""
    n, edges = graph
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    adj = np.zeros((n, n))
    np.add.at(adj, (e[:, 0], e[:, 1]), 1.0)
    np.add.at(adj, (e[:, 1], e[:, 0]), 1.0)
    deg = adj.sum(axis=1)
    lap = np.diag(deg) - adj
    scale = 1.0 / np.sqrt(deg)
    comb = np.linalg.eigvalsh(lap)[1]
    norm = np.linalg.eigvalsh(scale[:, None] * lap * scale[None, :])[1]
    return float(comb), float(norm)


def max_degree(graph: Graph) -> int:
    n, edges = graph
    return int(np.bincount(np.asarray(edges).ravel(), minlength=n).max())


def brute_force_cheeger(graph: Graph) -> Fraction:
    """Exact Cheeger constant by subset-sum doubling over all 2^n subsets.

    cut(S + k) = cut(S) + deg(k) - 2 w(k, S), where w(k, S) counts the edges
    from k into S; both tables double once per vertex.  The program instead
    tests every edge against every subset mask.
    """
    n, edges = graph
    mult = np.zeros((n, n), dtype=np.int32)
    for u, v in edges:
        if u != v:
            mult[u, v] += 1
            mult[v, u] += 1
    deg = mult.sum(axis=1)
    cut = np.zeros(1, dtype=np.int32)
    size = np.zeros(1, dtype=np.int32)
    for k in range(n):
        into = np.zeros(1, dtype=np.int32)
        for j in range(k):
            into = np.concatenate((into, into + mult[k, j]))
        cut = np.concatenate((cut, cut + deg[k] - 2 * into))
        size = np.concatenate((size, size + 1))
    # Subsets holding vertex 0 (odd masks) cover every bipartition once;
    # drop the last, which is the whole vertex set.
    cut, size = cut[1:-1:2], size[1:-1:2]
    side = np.minimum(size, n - size)
    ratio = cut / side
    near = np.nonzero(ratio <= ratio.min() * (1 + 1e-12))[0]
    return min(Fraction(int(cut[i]), int(side[i])) for i in near)


# -- output checks ----------------------------------------------------------


def _close(got, want: float) -> bool:
    return isinstance(got, float) and abs(got - want) <= LAMBDA1_REL_TOL * abs(want)


def check_tower_report(
    doc: dict,
    graph: Graph,
    levels: int,
    *,
    vertex_cap: int,
    cheeger_cap: int,
    spectrum_cap: int,
) -> list[str]:
    """Rows against closed forms; lambda1 against eigvalsh on independently
    built covers; Cheeger values against brute force or the inequalities
    lambda1/2 <= h <= lemma bound.  Sweep values are not pinned, because
    they depend on the eigenvector basis when lambda1 is repeated."""
    problems: list[str] = []
    want_rows = expected_tower_rows(graph, levels, vertex_cap)
    rows = doc.get("levels", [])
    if len(rows) != len(want_rows):
        return [f"report has {len(rows)} rows, expected {len(want_rows)}"]
    truncated = not want_rows[-1]["constructed"]
    if doc.get("truncated") != truncated:
        problems.append(f"truncated is {doc.get('truncated')!r}, expected {truncated}")
    want_level = want_rows[-1]["level"] if truncated else None
    if doc.get("truncated_level") != want_level:
        problems.append(f"truncated_level is {doc.get('truncated_level')!r}")

    level_graph = graph
    for row, want in zip(rows, want_rows):
        tag = f"level {want['level']}"
        for key, value in want.items():
            if row.get(key) != value:
                problems.append(f"{tag}: {key} is {row.get(key)!r}, expected {value!r}")
        if want["level"] > 0 and want["constructed"]:
            level_graph = homology_cover(level_graph) if want["vertices"] <= spectrum_cap else None
        if not want["constructed"]:
            for key in ("cheeger_value", "lambda1_combinatorial", "lambda1_normalized"):
                if row.get(key) is not None:
                    problems.append(f"{tag}: truncated row carries {key}")
            continue
        lam = None
        if want["vertices"] <= spectrum_cap:
            lam = lambda1_pair(level_graph)
            for key, expect in zip(("lambda1_combinatorial", "lambda1_normalized"), lam):
                if not _close(row.get(key), expect):
                    problems.append(f"{tag}: {key} is {row.get(key)!r}, eigvalsh gives {expect!r}")
        elif row.get("lambda1_combinatorial") is not None:
            problems.append(f"{tag}: lambda1 reported above the spectrum cap")
        problems += _check_level_cheeger(row, want, level_graph, lam, cheeger_cap, tag)
    return problems


def _check_level_cheeger(row, want, level_graph, lam, cheeger_cap, tag) -> list[str]:
    try:
        value = Fraction(row.get("cheeger_value"))
    except (TypeError, ValueError):
        return [f"{tag}: cheeger_value {row.get('cheeger_value')!r} is not a rational"]
    if want["vertices"] <= cheeger_cap:
        want_value = brute_force_cheeger(level_graph)
        if (value, row.get("cheeger_certified"), row.get("cheeger_method")) != (
            want_value, "exact", "brute_force"
        ):
            return [f"{tag}: exact cheeger {value} ({row.get('cheeger_method')}), "
                    f"brute force gives {want_value}"]
        return []
    problems = []
    lemma = Fraction(want["lemma_bound"]) if want["lemma_bound"] is not None else None
    methods = ("lemma_cut", "sweep") if lam is not None else ("lemma_cut",)
    if row.get("cheeger_certified") != "upper_bound" or row.get("cheeger_method") not in methods:
        problems.append(f"{tag}: unexpected certificate {row.get('cheeger_certified')!r} "
                        f"/ {row.get('cheeger_method')!r}")
    if lemma is not None and (
        value > lemma or (row.get("cheeger_method") == "lemma_cut" and value != lemma)
    ):
        problems.append(f"{tag}: cheeger bound {value} disagrees with lemma bound {lemma}")
    if lam is not None and float(value) < lam[0] / 2 - INEQUALITY_TOL:
        problems.append(f"{tag}: cheeger bound {value} below lambda1/2 = {lam[0] / 2}")
    return problems


def check_report_csv(text: str, doc: dict) -> list[str]:
    """The CSV artifact carries the same rows and counts as the JSON one."""
    rows = list(csv.DictReader(io.StringIO(text)))
    want = [(str(r["level"]), str(r["vertices"]), str(r["edges"])) for r in doc["levels"]]
    got = [(r.get("level"), r.get("vertices"), r.get("edges")) for r in rows]
    return [] if got == want else [f"CSV rows {got!r} differ from JSON rows {want!r}"]


def check_cheeger_doc(doc: dict, graph: Graph, brute_force: bool) -> list[str]:
    """Witness recount, value = crossing / smaller side, the Cheeger sandwich
    lambda1/2 <= h <= sqrt(2 d_max lambda1) and, when asked, brute force."""
    n, edges = graph
    witness = doc.get("witness", {})
    side_a, side_b = witness.get("side_a", []), witness.get("side_b", [])
    if sorted(side_a + side_b) != list(range(n)) or not side_a or not side_b:
        return [f"witness sides {side_a!r} / {side_b!r} are not a bipartition of 0..{n - 1}"]
    in_a = np.zeros(n, dtype=bool)
    in_a[side_a] = True
    e = np.asarray(edges)
    crossing = int(np.count_nonzero(in_a[e[:, 0]] != in_a[e[:, 1]]))
    ratio = Fraction(crossing, min(len(side_a), len(side_b)))
    problems = []
    if witness.get("crossing_edges") != crossing:
        problems.append(f"witness claims {witness.get('crossing_edges')} crossing edges, "
                        f"recount gives {crossing}")
    if doc.get("value") != str(ratio) or witness.get("ratio") != str(ratio):
        problems.append(f"value {doc.get('value')!r} / ratio {witness.get('ratio')!r}, "
                        f"recount gives {ratio}")
    if (doc.get("certified"), doc.get("method"), doc.get("input_vertices")) != (
        "exact", "brute_force", n
    ):
        problems.append("certificate fields differ from an exact brute-force run")
    lam = lambda1_pair(graph)[0]
    h = float(ratio)
    upper = math.sqrt(2 * max_degree(graph) * lam)
    if not lam / 2 - INEQUALITY_TOL <= h <= upper + INEQUALITY_TOL:
        problems.append(f"h = {h} outside [lambda1/2, sqrt(2 d lambda1)] = [{lam / 2}, {upper}]")
    if brute_force and not problems:
        want = brute_force_cheeger(graph)
        if ratio != want:
            problems.append(f"value {ratio} differs from brute force {want}")
    return problems


def check_cover_doc(doc: dict, graph: Graph) -> list[str]:
    """Counts, per-vertex degrees and edge projection of an exported cover.

    Cover vertex (v, a) has id v 2^r + a, so id >> r projects to the base."""
    n, edges = graph
    r = len(edges) - n + 1
    sheets = 1 << r
    if doc.get("vertices") != n * sheets or len(doc.get("edges", [])) != len(edges) * sheets:
        return [f"cover has {doc.get('vertices')} vertices and {len(doc.get('edges', []))} "
                f"edges, expected {n * sheets} and {len(edges) * sheets}"]
    cover_edges = np.asarray(doc["edges"], dtype=np.int64)
    base_edges = np.asarray(edges, dtype=np.int64)
    problems = []
    got = np.bincount(cover_edges.ravel(), minlength=n * sheets)
    want = np.repeat(np.bincount(base_edges.ravel(), minlength=n), sheets)
    if got.shape != want.shape or np.any(got != want):
        bad = int(np.argmax(got != want)) if got.shape == want.shape else -1
        problems.append(f"cover vertex {bad} has degree unlike its base vertex")
    projected = np.sort(cover_edges >> r, axis=1)
    expected = np.repeat(np.sort(base_edges, axis=1), sheets, axis=0)
    order_p = np.lexsort(projected.T[::-1])
    order_e = np.lexsort(expected.T[::-1])
    if not np.array_equal(projected[order_p], expected[order_e]):
        problems.append("cover edges do not project onto the base edges 2^r times each")
    return problems
