"""Optional SciPy acceleration for the imaging/feature kernels.

Every kernel has one production implementation.  Two of them have a SciPy
form and a pure-NumPy form that produce the same results: the Gabor bank's
batched inverse FFT (:func:`repro.features.gabor.gabor_responses`) and
connected-component labelling (:func:`repro.features.regions.label_regions`).
SciPy is an optional dependency, so :data:`HAVE_SCIPY` alone picks between
them.  The straightforward reference forms of the other kernels live in the
test suite as oracles (``tests/imaging/oracles.py``).
"""

from __future__ import annotations

__all__ = ["HAVE_SCIPY"]

try:  # SciPy is optional; the NumPy forms cover its absence
    import scipy.ndimage as _ndimage  # noqa: F401

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_SCIPY = False
