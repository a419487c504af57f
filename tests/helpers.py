"""Helpers shared by the test modules."""

import numpy as np


def word_lengths(b) -> np.ndarray:
    """Each vertex's word length, in vertex order: a ball lists its vertices
    sphere by sphere, `sphere_sizes[ell]` of length ell."""
    return np.repeat(np.arange(len(b.sphere_sizes)), b.sphere_sizes)
