"""Test helper for the bordered (k+2)-size matrices of stages (p, v, B)."""


def kernel_vector(k):
    """z = (k+1, -1, ..., -1)^T, the common right kernel of every bordered
    matrix of rank k; it does not depend on the stage."""
    return tuple([k + 1] + [-1] * (k + 1))
