import numpy as np
import pytest

from qsslab.schemes import (
    SchemeSpec,
    build_block_scheme,
    build_threshold34,
    identity_assignment,
)
from qsslab.structures import threshold_structure


@pytest.fixture(scope="session")
def threshold34_scheme():
    return build_threshold34()


@pytest.fixture(scope="session")
def threshold34_gamma():
    return threshold_structure(3, 4)


@pytest.fixture(scope="session")
def corrupted_scheme():
    """Valid isometry whose |1> image has one flipped bit; breaks recoverability."""
    images = np.zeros((2, 16), dtype=np.complex128)
    images[0, 0b0000] = images[0, 0b1111] = 2**-0.5
    images[1, 0b0011] = images[1, 0b1110] = 2**-0.5
    return SchemeSpec(4, images, identity_assignment(4), name="corrupted")


@pytest.fixture(scope="session")
def constructed_schemes():
    """Every scheme family instance the acceptance runs cover."""
    cases = [(build_threshold34(), threshold_structure(3, 4))]
    for n in range(3, 8):
        for k in range(1, n):
            cases.append(build_block_scheme(n, list(range(1, k + 1))))
    return cases


@pytest.fixture(scope="session")
def feasibility_rows():
    from qsslab.verifier import feasibility_matrix

    return feasibility_matrix()["rows"]
