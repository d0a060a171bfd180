"""Golden outputs: CLI results pinned to the values of an earlier release.

Float-free outputs (cover exports and Cheeger results) are pinned by the
SHA-256 of their stdout bytes, with the exit code and the stderr line, one
truncated tower report by the SHA-256 of its JSON, CSV and SVG artifacts,
and three float-free decay plots by the SHA-256 of their SVG.
Other tower reports are compared field by field from `golden_towers.json`:
the lambda1 columns within 1e-9 relative, every other field exactly.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from covertower import iterate_tower
from covertower.cli import main
from covertower.seeds import builtin_seed
from covertower.svgplot import tower_svg

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# argv: (exit code, SHA-256 of stdout, stderr)
DIGESTS = {
    "cover theta --iterate 2": (
        0, "b186ce5eb4e08982ede3a10bddcf9c9d5f24f482db60a7ecfaa12c698c75b354", ""
    ),
    "cover figure8 --iterate 2 --format dot": (
        0, "11d21078063f940daf671bb0930bcdb324b348dc85e9b234b53eac51262aec75", ""
    ),
    # 12,288 vertices: the spanning trees' BFS order fixes every id
    "cover cycle:3 --iterate 12": (
        0, "3fbf4a64b11300dfb178f09ed6be62859871db65211d7bcae48dcb5242d930a5", ""
    ),
    "cheeger figure8 --method exact": (
        4,
        EMPTY,
        '{"error": "DegenerateCutError", "message": "cheeger constant needs at '
        'least two vertices to form a bipartition"}\n',
    ),
    "cheeger theta --method exact": (
        0, "b18675478d6cb1d5cd21fb2c275fb010f2338f62a304bb1303f46010be9211d5", ""
    ),
    "cheeger cycle:5 --method exact": (
        0, "5f2ed5959f866a652fb8b4289df61c2fbdaa435b638f94d2405b9972d8c78150", ""
    ),
    "cheeger cycle:26 --method exact": (
        0, "cb9101ce0fa20e7d7550d95d98516e057abf8efbf03a774dd7ee6cd52aa74ad6", ""
    ),
    "cheeger cycle:30 --method exact --cheeger-cap 30": (
        0, "114681e1d60d4b6f1b79e5024d8189e739669de3d3d2d773d22184001141f78d", ""
    ),
    "cheeger figure8 --method lemma": (
        0, "794110e25059aee42e9aede75cadd48b406b4f1438b79ffd65e9296f7c16b0a5", ""
    ),
    "cheeger theta --method lemma": (
        0, "1d4e06f7f3d0254dc192009c3364be95c2f080d8032ac7c421767290d67f571d", ""
    ),
    "cheeger cycle:5 --method lemma": (
        0, "79318869c169e8200b6696c2c48fd1355d9116f3de68cd35fc89cbdee5b2e13e", ""
    ),
    "cheeger cycle:26 --method lemma": (
        0, "0c4c3a195499554bd121887fe7b7e3160916a3ed8043e860f201b17e3322ad6d", ""
    ),
    "cheeger figure8 --method sweep": (
        4,
        EMPTY,
        '{"error": "DegenerateCutError", "message": "sweep cut needs at least '
        'two vertices"}\n',
    ),
    "cheeger theta --method sweep": (
        0, "d4f4323cef483d13cd4789bfaec61ca38d06abc13b2d3c31dd22d4f67ebff885", ""
    ),
    "cheeger cycle:5 --method sweep": (
        0, "70a24602a9f24b244ab5f091cd18b3081e2d3ed5f35f320e9e1e839c0a2fe6fd", ""
    ),
    "cheeger cycle:26 --method sweep": (
        0, "53d7b7aa9555c5503645de885544313834ec10698a4974ad59cdad685317b847", ""
    ),
}

# SHA-256 of the artifacts of `tower --seed bouquet:10 --levels 2`, whose
# truncated row has 2,778-digit counts; its plotted lambda1 values are
# exactly 4 and 0.2
BOUQUET10_L2_DIGESTS = {
    "json": "72e6d4ddfe89ad9fb5c6ef4fd5e0663494b78f56815be8f238386ce20f2da5bd",
    "csv": "bedae883e6df6ada47249e9695bb41b3711b1ef815006f9a8e7a01749ad3240b",
    "svg": "6de2fcea60ca45935d34b4f35254bfa3ae2a2b2cff3fbe9deb61af051743d85e",
}

# "seed levels": (iterate_tower keywords, SHA-256 of tower_svg of the report).
# No plotted value is a rounded float: figure8 L0 plots nothing, bouquet:0
# has no edges at any level, and cycle:4 at spectrum_cap=1 plots only h = 1
# under an escaped seed label.
PLOT_DIGESTS = {
    "figure8 0": ({}, "24efcdc48719fa8db7ac7e574e4f4dccf92809479035bdbf55c707f6c01c9207"),
    "bouquet:0 3": ({}, "f4444a220c3d2cba3e5c87f453ac64260c7b4ed710496ca5eb9b059bceb0e4db"),
    "cycle:4 0": (
        {"spectrum_cap": 1, "seed_description": 'a<b&c "q"'},
        "a4e4188831f250200415fe7041c6d7cbbb7170d6c651471af2092914a29967c4",
    ),
}

TOWERS = json.loads((Path(__file__).parent / "golden_towers.json").read_text())
LAMBDA1 = ("lambda1_combinatorial", "lambda1_normalized")


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_float_free_output_digest(command, capsys):
    code = main(command.split())
    captured = capsys.readouterr()
    digest = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
    assert (code, digest, captured.err) == DIGESTS[command]


def test_truncated_tower_artifact_digests(tmp_path):
    prefix = tmp_path / "t"
    assert main(["tower", "--seed", "bouquet:10", "--levels", "2", "--out", str(prefix)]) == 0
    for ext, expected in BOUQUET10_L2_DIGESTS.items():
        digest = hashlib.sha256(prefix.with_suffix(f".{ext}").read_bytes()).hexdigest()
        assert digest == expected, ext


@pytest.mark.parametrize("case", sorted(PLOT_DIGESTS))
def test_float_free_plot_digest(case):
    seed, levels = case.split()
    keywords, expected = PLOT_DIGESTS[case]
    report = iterate_tower(builtin_seed(seed), int(levels), **{"seed_description": seed, **keywords})
    assert hashlib.sha256(tower_svg(report).encode("utf-8")).hexdigest() == expected


@pytest.mark.parametrize("case", sorted(TOWERS))
def test_tower_report_fields(case, tmp_path):
    seed, levels = case.split()
    prefix = tmp_path / "t"
    argv = ["tower", "--seed", seed, "--levels", levels, "--out", str(prefix)]
    assert main(argv + ["--format", "json"]) == 0
    doc = json.loads(prefix.with_suffix(".json").read_text())
    expected = TOWERS[case]
    assert {k: v for k, v in doc.items() if k != "levels"} == {
        k: v for k, v in expected.items() if k != "levels"
    }
    assert len(doc["levels"]) == len(expected["levels"])
    for row, want in zip(doc["levels"], expected["levels"]):
        assert row.keys() == want.keys()
        for key, value in want.items():
            if key in LAMBDA1 and value is not None:
                assert row[key] == pytest.approx(value, rel=1e-9), (row["level"], key)
            else:
                assert row[key] == value, (row["level"], key)
