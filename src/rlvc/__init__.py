"""Feature-level generative zero-shot learning.

Synthesizes visual features for unseen classes with a diffusion-conditioned
WGAN, sharpened by an outcome-reward policy-gradient update and class-wise
visual-prototype distillation, then trains linear heads for CZSL/GZSL
evaluation.

RLVC_THREADS=n (n > 0) sets OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and
MKL_NUM_THREADS to n, over any inherited values, when the package is first
imported; 0 = leave them as they are. BLAS reads them when numpy first
loads, so they take effect only if no numpy import comes before rlvc's.
"""

import os

from .errors import ConfigurationError, NumericFailure, UsageError

__version__ = "0.1.0"

__all__ = ["ConfigurationError", "NumericFailure", "UsageError", "__version__"]


def _threads() -> int:
    """RLVC_THREADS as a count, 0 if it is unset; UsageError unless it is a
    nonnegative integer."""
    raw = os.environ.get("RLVC_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = -1
    if n < 0:
        raise UsageError(f"RLVC_THREADS must be a nonnegative integer, got {raw!r}")
    return n


def _apply_thread_env() -> None:
    try:
        n = _threads()
    except UsageError:
        return  # cli.main refuses it, with a usage error's exit code
    if n:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(n)


_apply_thread_env()  # must precede numpy's first import, which every submodule makes
