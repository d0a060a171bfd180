"""The three workloads: the CLI commands one op runs and how each is checked.

Caps are the CLI defaults (vertex 10^6, Cheeger 26, spectrum 2048); the
checks restate them because they decide which report columns are filled.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import oracles
from inputs import Graph

VERTEX_CAP = 10**6
CHEEGER_CAP = 26
SPECTRUM_CAP = 2048
TOWER_LEVELS = 2
# Every BRUTE_FORCE_EVERY-th exact-cheeger op (the first included) is also
# compared with the benchmark's own brute force.
BRUTE_FORCE_EVERY = 8


@dataclass(frozen=True)
class Workload:
    name: str
    vertices: int
    rank: int
    commands: Callable[[str, str], list[list[str]]]
    check: Callable[[Graph, str, list[str], int], list[str]]
    verify_covers: bool = False
    # The reference kernel (bench/reference.py) whose time rescales this
    # workload's end-to-end times to a steady host speed.
    reference: str = "objects"


def _tower_argv(graph_path: str, out_dir: str) -> list[str]:
    return ["tower", "--seed", graph_path, "--levels", str(TOWER_LEVELS),
            "--out", os.path.join(out_dir, "report")]


def _check_tower_artifacts(graph: Graph, out_dir: str) -> list[str]:
    base = os.path.join(out_dir, "report")
    with open(base + ".json", encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = oracles.check_tower_report(
        doc, graph, TOWER_LEVELS, vertex_cap=VERTEX_CAP,
        cheeger_cap=CHEEGER_CAP, spectrum_cap=SPECTRUM_CAP,
    )
    with open(base + ".csv", encoding="utf-8") as fh:
        problems += oracles.check_report_csv(fh.read(), doc)
    with open(base + ".svg", encoding="utf-8") as fh:
        if not fh.read().rstrip().endswith("</svg>"):
            problems.append("SVG artifact is not a complete <svg> document")
    return problems


def _build_commands(graph_path, out_dir):
    return [_tower_argv(graph_path, out_dir),
            ["cover", graph_path, "--iterate", "1", "--out", os.path.join(out_dir, "c.json")]]


def _check_tower_build(graph, out_dir, stdouts, op):
    problems = _check_tower_artifacts(graph, out_dir)
    with open(os.path.join(out_dir, "c.json"), encoding="utf-8") as fh:
        problems += oracles.check_cover_doc(json.load(fh), graph)
    return problems


def _check_exact(graph, out_dir, stdouts, op):
    return oracles.check_cheeger_doc(
        json.loads(stdouts[0]), graph, brute_force=op % BRUTE_FORCE_EVERY == 0
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tower-spectral",
            vertices=2,
            rank=6,
            commands=lambda g, out: [_tower_argv(g, out)],
            check=lambda graph, out, stdouts, op: _check_tower_artifacts(graph, out),
            verify_covers=True,
        ),
        Workload(
            name="tower-build",
            vertices=8,
            rank=10,
            commands=_build_commands,
            check=_check_tower_build,
        ),
        Workload(
            name="exact-cheeger",
            vertices=20,
            rank=41,
            commands=lambda g, out: [["cheeger", g, "--method", "exact"]],
            check=_check_exact,
            reference="stream",
        ),
    )
}
