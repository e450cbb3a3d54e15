"""Differentially private exact community recovery in stochastic block models.

Library layout:

* :mod:`sbmdp.graph` -- immutable symmetric graphs, Hamming geometry,
  edge-list serialization.
* :mod:`sbmdp.models` -- the three block-model variants, seeded generation,
  ground truth, cluster matrices.
* :mod:`sbmdp.spectral` -- tolerances, spectral norm, and the solver's
  eigendecomposition and PSD projection.
* :mod:`sbmdp.sdp` -- the SDP relaxations, projection-splitting solver,
  and rounding.
* :mod:`sbmdp.concentration` -- threshold rate functions, default and
  tightened constants, and the concentration checker.
* :mod:`sbmdp.certificates` -- the dual-certificate kernels and verifiers
  behind the solver's early stop and the certificate diagnostics.
* :mod:`sbmdp.privacy` -- Laplace noise, distance to instability, the
  stability / fast-stability mechanisms, and ``release``, their one entry.
* :mod:`sbmdp.harness` -- seeded recovery-rate sweeps with CSV output.
"""

from .graph import Graph, read_edge_list, write_edge_list
from .models import (
    BasbmParams,
    CbsbmParams,
    GroundTruth,
    GssbmParams,
    cluster_matrix,
    expected_adjacency,
    generate,
    same_clustering,
)
from .privacy import MechanismOutcome, PrivacyParams, release, stbl, stbl_fast
from .sdp import SolveOptions, recover, solve

__all__ = [
    "Graph",
    "read_edge_list",
    "write_edge_list",
    "BasbmParams",
    "CbsbmParams",
    "GssbmParams",
    "GroundTruth",
    "cluster_matrix",
    "expected_adjacency",
    "generate",
    "same_clustering",
    "MechanismOutcome",
    "PrivacyParams",
    "release",
    "stbl",
    "stbl_fast",
    "SolveOptions",
    "recover",
    "solve",
]

__version__ = "0.1.0"
