"""Shared fixtures: the order-3 tensor whose rank differs over R and C."""

import math
import resource

import pytest

from tenalg import COMPLEX, REAL, DenseTensor


def z_tensor(field=REAL) -> DenseTensor:
    """Shape (2,2,2); frontal slice k=1 is the identity, k=2 the rotation
    [[0,1],[-1,0]].  Real rank 3, complex rank 2."""
    coeffs = [1, 0, 0, 1, 0, -1, 1, 0]  # row-major over (i, j, k)
    return DenseTensor((2, 2, 2), coeffs, field)


def z_real_terms():
    """A 3-term decomposition of the Z tensor with real factors."""
    rows = [
        [(1, 0), (1, 0), (1, -1)],
        [(0, 1), (0, 1), (1, 1)],
        [(1, -1), (1, 1), (0, 1)],
    ]
    return [
        [DenseTensor.vector(list(v), REAL) for v in term] for term in rows
    ]


def z_complex_terms():
    """A 2-term decomposition of the Z tensor with complex factors."""
    s = 1 / math.sqrt(2)
    rows = [
        [(s, -1j * s), (s, 1j * s), (1, -1j)],
        [(s, 1j * s), (s, -1j * s), (1, 1j)],
    ]
    return [
        [DenseTensor.vector([complex(c) for c in v], COMPLEX) for v in term]
        for term in rows
    ]


@pytest.fixture
def z_fixture():
    return z_tensor(), z_real_terms(), z_complex_terms()


@pytest.fixture
def address_space_cap():
    """Cap this process's address space 1 GiB above its current size for one
    test, so that a size guard that stops working ends in MemoryError
    instead of exhausting the machine's memory."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        size = int(fh.read().split()[0]) * resource.getpagesize()
    cap = size + (1 << 30)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
