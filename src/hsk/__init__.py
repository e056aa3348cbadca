"""Exact Hecke-algebra realization of the level-K SU(N) fusion category.

The algebra H_n is taken at q = exp(2*pi*i/(N+K)), with all scalars in
the cyclotomic field Q(zeta_{2N(N+K)}).  The Markov trace at the
distinguished weight purifies H_n to a semisimple quotient whose
blocks are indexed by level-bounded Young diagrams.  The Bratteli
path model of the quotient (``seminormal``) holds each block's data:
quantum dimensions are its q-Weyl weights, central idempotents the
preimages of its block identities on the T basis, and fusion rules,
twists, the S-matrix and modular-functor dimensions traces in its
blocks, all exactly.
"""

from importlib import import_module

from .scalar import Params, Scalar, qfact, qint
from .diagrams import (YoungDiagram, branch, dagger, diagram_stats, gamma_n, labels,
                       pad, path_count, weight)
from .seminormal import TRACE_LIMIT
from .closure import BraidWord, closure_invariant, curl_scalar, loop_power
from .modular import (GRAM_LIMIT, FusionTable, SMatrix, fusion, fusion_matrix,
                      fusion_table, mf_dim, purified_dim, qdim, s_matrix, twist)


# The T-basis route loads on first use (PEP 562), so a call that needs
# only the path model never imports or compiles it.  Each of these
# modules imports the ones before it, so a name loads only what it needs.
def __getattr__(name: str):
    if name in __all__:
        for mod in ("hecke", "category", "trace", "verify"):
            names = vars(import_module(f"{__name__}.{mod}"))
            if name in names:
                return names[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Params", "Scalar", "qint", "qfact",
    "YoungDiagram", "labels", "dagger", "gamma_n", "branch", "path_count", "pad", "weight",
    "diagram_stats",
    "BraidWord", "HeckeElement", "YoungIdempotent", "sigma_element", "from_braid",
    "e_idempotent", "jones_wenzl", "young_idempotent", "tensor_embed", "star",
    "GRAM_LIMIT", "TRACE_LIMIT", "GramData", "markov_trace", "pairing", "gram", "eta",
    "trace_parameter", "closure_invariant", "curl_scalar", "loop_power",
    "BlockData", "FusionTable", "SMatrix", "purified_dim", "minimal_idempotent",
    "central_idempotents", "branching_multiplicity", "purified_algebra", "fusion",
    "fusion_matrix", "fusion_table", "qdim", "twist", "s_matrix", "mf_dim",
    "VerifyReport", "run_verify",
]

__version__ = "0.1.0"
