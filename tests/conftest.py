"""Shared reference implementations used as oracles.

Everything here is written independently of the package internals: plain
loops over sites, no shared helpers, so that agreement is evidence rather
than tautology.
"""
import itertools

import numpy as np
import pytest
from hypothesis import settings

# Every property runs the same examples on every run: no example database
# and no random seed, and no deadline, since sweep times vary by host.
settings.register_profile("latticebands", derandomize=True, database=None, deadline=None)
settings.load_profile("latticebands")


def ref_fiber(q, V, theta):
    """Loop-built fiber matrix: interior hops, phased wraps, diagonal V.

    q is a plain tuple of ints, V a flat array in row-major site order,
    theta a tuple of reduced phase coordinates.
    """
    dims = list(q)
    d = len(dims)
    sites = list(itertools.product(*[range(qi) for qi in dims]))
    index = {s: i for i, s in enumerate(sites)}
    n = len(sites)
    H = np.zeros((n, n), dtype=complex)
    for s in sites:
        a = index[s]
        for i in range(d):
            nb = list(s)
            nb[i] += 1
            if nb[i] < dims[i]:
                b = index[tuple(nb)]
                H[a, b] += 1.0
                H[b, a] += 1.0
            else:
                nb[i] = 0
                b = index[tuple(nb)]
                ph = np.exp(2j * np.pi * dims[i] * theta[i])
                H[a, b] += ph
                H[b, a] += np.conj(ph)
    for s in sites:
        H[index[s], index[s]] += V[index[s]]
    return H


def ref_levels(q, theta):
    """Closed-form free levels, one per frequency offset, sorted descending."""
    dims = list(q)
    out = []
    for l in itertools.product(*[range(qi) for qi in dims]):
        e = sum(2.0 * np.cos(2.0 * np.pi * (theta[i] + l[i] / dims[i])) for i in range(len(dims)))
        out.append(e)
    return np.array(sorted(out, reverse=True))


def ref_level_single(q, theta, l):
    dims = list(q)
    return sum(
        2.0 * np.cos(2.0 * np.pi * (theta[i] + l[i] / dims[i])) for i in range(len(dims))
    )


def grid_thetas(q, m):
    """Phase of every grid node, a tuple of d floats, in row-major order, node
    j_i at j_i / (q_i m_i): the order of the rows of iter_band_rows."""
    steps = [1.0 / (qi * mi) for qi, mi in zip(q, m)]
    return [tuple(j * h for j, h in zip(js, steps)) for js in itertools.product(*[range(mi) for mi in m])]


def inversion_symmetric(values, centre):
    """values (an array of the cell's shape) made symmetric about the centre:
    site n takes the value of whichever of n and c - n mod p comes first in
    row-major order, so V(c - n) == V(n) exactly."""
    out = np.empty_like(values)
    for n in np.ndindex(*values.shape):
        m = tuple((c - ni) % pi for c, ni, pi in zip(centre, n, values.shape))
        out[n] = values[min(n, m)]
    return out


def random_periods(rng, d_max=4, q_max=5, cell_max=36):
    """Draw a small random period vector with a bounded cell size."""
    while True:
        d = int(rng.integers(2, d_max + 1))
        q = tuple(int(rng.integers(1, q_max + 1)) for _ in range(d))
        if np.prod(q) <= cell_max:
            return q


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
