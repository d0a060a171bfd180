"""covertower: iterated Z/2-homology covers with certified expansion bounds.

Build the homology double-cover tower of a finite multigraph (the figure-8
seed yields the Cayley graphs of iterated-square quotients of the rank-2
free group), certify Cheeger-constant upper bounds via an explicit fiber
cut, compute exact Cheeger constants by exhaustive search at small scale,
and track Laplacian spectral gaps along the tower.
"""

from .cheeger import (
    CheegerResult,
    Cut,
    exact_cheeger,
    lemma_cut,
    sweep_cut,
    verify_witness,
)
from .covers import (
    CoveredGraph,
    RegularCoverReport,
    verify_regular_cover,
    z2_cover,
)
from .errors import (
    ConvergenceError,
    CovertowerError,
    DegenerateCutError,
    DisconnectedGraphError,
    SizeCapError,
    SpecMismatchError,
    SpectrumError,
    ValidationError,
)
from .multigraph import (
    CoverSpec,
    MultiGraph,
    build_graph,
    is_connected,
    spanning_tree,
)
from .spectrum import (
    SpectralSummary,
    full_spectrum,
    laplacian,
    laplacian_spectrum,
    symmetric_eigensystem,
)
from .tower import TowerLevel, TowerReport, iterate_tower

__version__ = "0.1.0"

__all__ = [
    "CheegerResult",
    "ConvergenceError",
    "CoverSpec",
    "CoveredGraph",
    "CovertowerError",
    "Cut",
    "DegenerateCutError",
    "DisconnectedGraphError",
    "MultiGraph",
    "RegularCoverReport",
    "SizeCapError",
    "SpecMismatchError",
    "SpectralSummary",
    "SpectrumError",
    "TowerLevel",
    "TowerReport",
    "ValidationError",
    "build_graph",
    "exact_cheeger",
    "full_spectrum",
    "is_connected",
    "iterate_tower",
    "laplacian",
    "laplacian_spectrum",
    "lemma_cut",
    "spanning_tree",
    "sweep_cut",
    "symmetric_eigensystem",
    "verify_regular_cover",
    "verify_witness",
    "z2_cover",
]
