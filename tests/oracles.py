"""Reference measurements that the tests hold the package's closed forms to."""
import numpy as np


def count_fringe_peaks(values):
    """Number of strict local maxima of a cyclically sampled curve."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 3:
        raise ValueError("need a 1-D array of at least 3 samples")
    left = np.roll(v, 1)
    right = np.roll(v, -1)
    return int(np.count_nonzero((v > left) & (v > right)))
