"""Output checks the benchmark applies to every timed operation.

A failed check raises CheckFailed naming the layer whose output was wrong;
the runner counts the step as failed and charges that layer.
"""

import traceback
from pathlib import Path


class CheckFailed(Exception):
    def __init__(self, layer, detail):
        super().__init__(f"{layer}: {detail}")
        self.layer = layer


def check(ok, layer, detail):
    if not ok:
        raise CheckFailed(layer, detail)


def layer_of(exc, package_dir):
    """Layer (module name) of the innermost library frame an exception passed."""
    layer = "benchmark"
    for frame in traceback.extract_tb(exc.__traceback__):
        path = Path(frame.filename)
        if path.parent == package_dir:
            layer = path.stem
    return layer


def integral_gso(rows):
    """Integral Gram-Schmidt data (Cohen, Alg. 2.6.7) in exact integers.

    Returns (d, lam): d[0] = 1 and d[i + 1] is the Gram determinant of the
    first i + 1 rows; lam[i][j] = d[j + 1] * mu[i][j] for j < i. Raises
    ValueError when the rows are linearly dependent.
    """
    size = len(rows)
    d = [1] + [0] * size
    lam = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1):
            u = sum(x * y for x, y in zip(rows[i], rows[j]))
            for k in range(j):
                u = (d[k + 1] * u - lam[i][k] * lam[j][k]) // d[k]
            if j < i:
                lam[i][j] = u
            elif u <= 0:
                raise ValueError("rows are linearly dependent")
            else:
                d[i + 1] = u
    return d, lam


def lll_violation(basis, reduced):
    """Why `reduced` is not an LLL reduction (delta = 3/4) of `basis`, or None.

    Checks that the output has the input's |determinant| (equal Gram
    determinants of two square bases), is size-reduced (|mu_ij| <= 1/2,
    i.e. 2|lam_ij| <= d_j+1) and meets the Lovasz condition
    4 d_k+1 d_k-1 >= 3 d_k^2 - 4 lam_k,k-1^2, all in exact integers.
    """
    if len(reduced) != len(basis) or any(len(r) != len(basis[0]) for r in reduced):
        return "shape differs from the input basis"
    d_in, _ = integral_gso(basis)
    try:
        d, lam = integral_gso(reduced)
    except ValueError:
        return "output rows are linearly dependent"
    if d[-1] != d_in[-1]:
        return "|determinant| differs from the input basis"
    for i in range(len(reduced)):
        for j in range(i):
            if 2 * abs(lam[i][j]) > d[j + 1]:
                return f"not size-reduced at mu[{i}][{j}]"
    for k in range(1, len(reduced)):
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lam[k][k - 1] ** 2:
            return f"Lovasz condition fails at row {k}"
    return None
