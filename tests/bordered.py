"""Test helpers for the bordered (k+2)-size matrices of stages (p, v, B)."""

from dimgroup.exact import Matrix


def kernel_vector(k):
    """z = (k+1, -1, ..., -1)^T, the common right kernel of every bordered
    matrix of rank k; it does not depend on the stage."""
    return tuple([k + 1] + [-1] * (k + 1))


def nonuniform_bordered_matrix(p, v, b, a):
    """The bordered matrix of (p, v, B) with one free parameter per column,
    a = (a_0, ..., a_{k+1}): bottom row a, middle rows (v + a_0 1,
    B + v 1^T + 1 (a_1, ..., a_k), v - B 1 + a_{k+1} 1), top row p minus
    the lower column sums.  It has column sums p and annihilates z when
    a_1 + ... + a_{k+1} = (k+1) a_0; it is of B-form only when every a_j
    is one value."""
    k = len(v)
    sums = b.row_sums()
    lower = [[v[i] + a[0]] + [b[i, j] + v[i] + a[1 + j] for j in range(k)]
             + [v[i] - sums[i] + a[k + 1]] for i in range(k)] + [list(a)]
    top = [p - sum(row[j] for row in lower) for j in range(k + 2)]
    return Matrix.from_rows([top] + lower)
