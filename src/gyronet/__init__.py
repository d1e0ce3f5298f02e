"""gyronet: hyperbolic deep learning on the Poincare ball and hyperboloid.

Submodules:

- :mod:`gyronet.geometry` -- pure gyrovector and hyperboloid kernels
- :mod:`gyronet.diffcore` -- tape-based reverse-mode autodiff
- :mod:`gyronet.diffgeom` -- differentiable ball operations
- :mod:`gyronet.embed` -- skip-gram embeddings (euclidean / hyperboloid)
- :mod:`gyronet.hypformer` -- transformer intent classifier, both geometries
- :mod:`gyronet.optim` -- RMSProp, Riemannian SGD
- :mod:`gyronet.train` -- classifier training/evaluation harness
- :mod:`gyronet.data` -- corpora, intent datasets, synthetic generator
- :mod:`gyronet.bundle` -- model serialization
- :mod:`gyronet.cli` -- batch command-line interface
"""

from . import bundle, checks, data, diffcore, diffgeom, embed, geometry, hypformer, optim, train

__all__ = [
    "bundle",
    "checks",
    "data",
    "diffcore",
    "diffgeom",
    "embed",
    "geometry",
    "hypformer",
    "optim",
    "train",
]

__version__ = "0.1.0"
