"""Dense reference forms, for checking the factored code paths."""

from functools import reduce

import numpy as np


def dense(terms) -> np.ndarray:
    """The 2^n x 2^n matrix of a ProductTerms witness, party 1 leftmost."""
    return sum(c * reduce(np.kron, facs) for c, facs in zip(terms.coeffs, terms.factors))


def dense_value(terms, state) -> float:
    """Tr(rho W) on a full-system state, through the dense matrix."""
    return float(np.real(np.einsum("ij,ji->", state.matrix, dense(terms))))
