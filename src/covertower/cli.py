"""Command-line front end: tower, cover, cheeger, spectrum.

Exit codes (frozen contract):
  0  success
  2  configuration or input validation error
  3  tower truncated by the vertex cap while --strict is set
  4  computation infeasible for the input (size cap, degenerate cut,
     allocation failure)
  5  spectral computation rejected its input (cap, isolated vertex)
  6  filesystem I/O error

Errors are emitted as one-line JSON objects on stderr:
  {"error": "<ErrorClass>", "message": "..."}

All artifacts are byte-deterministic for a fixed command line.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import cheeger as cheeger_mod
from . import spectrum as spectrum_mod
from .errors import (
    ConvergenceError,
    CovertowerError,
    DegenerateCutError,
    SizeCapError,
    SpectrumError,
    Truncated,
    ValidationError,
)
from .multigraph import CoverLabels, MultiGraph
from .seeds import resolve_graph_input
from .svgplot import tower_svg
from .tower import (
    DEFAULT_VERTEX_CAP,
    MAX_TREE_LEVELS,
    homology_cover,
    iterate_tower,
    report_json_text,
    report_to_csv_text,
    report_to_json_dict,
    spanning_tree,  # noqa: F401 -- unused here; bench/spans.py wraps both names in cli too
    z2_cover,  # noqa: F401
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRUNCATED = 3
EXIT_INFEASIBLE = 4
EXIT_SPECTRUM = 5
EXIT_IO = 6

# Any other CovertowerError (bad input, spec mismatch, disconnected graph)
# falls through to EXIT_CONFIG in _error_exit_code.
_ERROR_CODES: tuple[tuple[type, int], ...] = (
    (Truncated, EXIT_TRUNCATED),
    (SizeCapError, EXIT_INFEASIBLE),
    (DegenerateCutError, EXIT_INFEASIBLE),
    (SpectrumError, EXIT_SPECTRUM),
    (ConvergenceError, EXIT_SPECTRUM),
    (OSError, EXIT_IO),
    (MemoryError, EXIT_INFEASIBLE),
)


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the four subcommands; `main` builds one and keeps it."""
    parser = argparse.ArgumentParser(
        prog="covertower",
        description=(
            "Iterated homology double covers of multigraphs, with certified "
            "Cheeger cuts and Laplacian spectral gaps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tower = sub.add_parser("tower", help="build a cover tower and write report artifacts")
    tower.add_argument("--seed", required=True, help="builtin name or graph JSON path")
    tower.add_argument("--levels", type=int, required=True, help="covering steps to take")
    tower.add_argument("--vertex-cap", type=int, default=DEFAULT_VERTEX_CAP)
    tower.add_argument("--cheeger-cap", type=int, default=cheeger_mod.DEFAULT_BRUTE_FORCE_CAP)
    tower.add_argument("--spectrum-cap", type=int, default=spectrum_mod.DEFAULT_SPECTRUM_CAP)
    tower.add_argument("--strict", action="store_true", help="exit 3 when the cap truncates")
    tower.add_argument(
        "--out",
        default="tower_report",
        help="artifact path prefix (writes PREFIX.json, PREFIX.csv, PREFIX.svg)",
    )
    tower.add_argument(
        "--format",
        choices=("json", "csv", "svg"),
        default=None,
        help="restrict output to one artifact (default: all three)",
    )

    cover = sub.add_parser("cover", help="construct an iterated cover of a graph")
    cover.add_argument("input", help="builtin name or graph JSON path")
    cover.add_argument("--iterate", type=int, default=1, help="number of covering steps")
    cover.add_argument("--vertex-cap", type=int, default=DEFAULT_VERTEX_CAP)
    cover.add_argument("--out", default=None, help="output path (default: stdout)")
    cover.add_argument("--format", choices=("json", "dot"), default="json")

    cheeger = sub.add_parser("cheeger", help="compute a Cheeger value with witness cut")
    cheeger.add_argument("input", help="builtin name or graph JSON path")
    cheeger.add_argument("--method", choices=("exact", "lemma", "sweep"), default="exact")
    cheeger.add_argument("--cheeger-cap", type=int, default=cheeger_mod.DEFAULT_BRUTE_FORCE_CAP)
    cheeger.add_argument("--out", default=None, help="output path (default: stdout)")

    spectrum = sub.add_parser("spectrum", help="compute a Laplacian spectral summary")
    spectrum.add_argument("input", help="builtin name or graph JSON path")
    spectrum.add_argument(
        "--kind",
        choices=(spectrum_mod.COMBINATORIAL, spectrum_mod.NORMALIZED),
        default=spectrum_mod.COMBINATORIAL,
    )
    spectrum.add_argument("--spectrum-cap", type=int, default=spectrum_mod.DEFAULT_SPECTRUM_CAP)
    spectrum.add_argument("--out", default=None, help="output path (default: stdout)")

    return parser


def cmd_tower(args: argparse.Namespace) -> int:
    report = iterate_tower(
        resolve_graph_input(args.seed),
        args.levels,
        args.vertex_cap,
        cheeger_cap=args.cheeger_cap,
        spectrum_cap=args.spectrum_cap,
        seed_description=args.seed,
    )
    artifacts = {
        "json": lambda: report_json_text(report_to_json_dict(report)),
        "csv": lambda: report_to_csv_text(report),
        "svg": lambda: tower_svg(report),
    }
    for fmt in (args.format,) if args.format else ("json", "csv", "svg"):
        _write_text(f"{args.out}.{fmt}", artifacts[fmt]())
    if report.truncated and args.strict:
        level, cap = report.truncated_level, report.vertex_cap
        raise Truncated(f"tower truncated at level {level} by vertex cap {cap}")
    return EXIT_OK


def cmd_cover(args: argparse.Namespace) -> int:
    if args.iterate < 0:
        raise ValidationError("--iterate must be nonnegative")
    g = resolve_graph_input(args.input)
    # The export formats ids from a table as long as the graph, so even an
    # input that is not covered (--iterate 0) is held to the cap.
    _check_vertex_cap(g, args.vertex_cap)
    if args.iterate and g.num_edges - g.num_vertices + 1 == 0:
        # A connected rank-0 graph is its own cover and each step only
        # appends "|" to every label, so k steps are one step, relabelled.
        if args.iterate > MAX_TREE_LEVELS:
            raise ValidationError(
                f"a rank-0 graph is its own cover; --iterate must be at most {MAX_TREE_LEVELS}"
            )
        labels = CoverLabels(g.labels, (0,) * args.iterate, g.num_vertices)
        g = MultiGraph(g.num_vertices, homology_cover(g, args.vertex_cap).graph.ends, labels)
    else:
        for _ in range(args.iterate):
            g = homology_cover(g, args.vertex_cap).graph
    text = g.to_json() if args.format == "json" else g.to_dot()
    _emit(args.out, text)
    return EXIT_OK


def cmd_cheeger(args: argparse.Namespace) -> int:
    g = resolve_graph_input(args.input)
    extra: dict = {"input_vertices": g.num_vertices}
    if args.method == "exact":
        result = cheeger_mod.exact_cheeger(g, max_vertices=args.cheeger_cap)
    elif args.method == "lemma":
        # The certified cut lives on the homology cover of the input, giving
        # the bound h(cover) <= 2 / #V(input).
        _check_vertex_cap(g, DEFAULT_VERTEX_CAP)
        cover = homology_cover(g, DEFAULT_VERTEX_CAP)
        result = cheeger_mod.lemma_cut(cover)
        extra.update(
            cover_vertices=cover.graph.num_vertices,
            cover_edges=cover.graph.num_edges,
            cover_rank=cover.rank,
        )
    else:
        # Sweep the canonical basis of the whole lambda1 eigenspace, as the
        # tower does, so a repeated eigenvalue gives one answer.
        _, basis = spectrum_mod.laplacian_spectrum(g, (), vectors=True)
        result = cheeger_mod.sweep_cut(g, basis)
    doc = result.to_json_dict()
    doc.update(extra)
    _emit(args.out, json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    g = resolve_graph_input(args.input)
    summary = spectrum_mod.full_spectrum(g, args.kind, max_vertices=args.spectrum_cap)
    _emit(args.out, json.dumps(summary.to_json_dict(), indent=2) + "\n")
    return EXIT_OK


def _check_vertex_cap(g: MultiGraph, vertex_cap: int) -> None:
    if g.num_vertices > vertex_cap:
        raise SizeCapError(
            f"graph has {g.num_vertices} vertices, above the cap {vertex_cap}"
        )


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _emit(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _write_text(path, text)


def _error_exit_code(exc: BaseException) -> int:
    for klass, code in _ERROR_CODES:
        if isinstance(exc, klass):
            return code
    return EXIT_CONFIG


_HANDLERS = {
    "tower": cmd_tower,
    "cover": cmd_cover,
    "cheeger": cmd_cheeger,
    "spectrum": cmd_spectrum,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on first use, not at import, so importing the module stays cheap.
    # Parsing leaves no state in the parser: no argument appends or has a
    # mutable default.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; safe to call repeatedly.

    The parser is built on the first call and reused by later calls in the
    process, so its defaults (the vertex, Cheeger and spectrum caps) are read
    once per process.
    """
    args = _parser().parse_args(argv)
    try:
        # Every command refuses a non-positive cap the same way, before any work.
        if any(value <= 0 for name, value in vars(args).items() if name.endswith("_cap")):
            raise ValidationError("caps must be positive")
        return _HANDLERS[args.command](args)
    except (CovertowerError, OSError, MemoryError) as exc:
        name, message = type(exc).__name__, str(exc)
        if isinstance(exc, MemoryError):
            # An allocation that failed is a size the input made infeasible.
            name, message = SizeCapError.__name__, message or "out of memory"
        print(json.dumps({"error": name, "message": message}), file=sys.stderr)
        return _error_exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
