"""Seifert-matrix routes that no pipeline takes, kept as test oracles: the
block presentation of a branched cyclic cover, and the monodromy-power
presentation H^n - I of a unimodular Seifert matrix.  Matrix powers here
and in the other tests use the schoolbook product and binary power below,
which share no arithmetic with IntMatrix's product or laurent._binpow."""

from __future__ import annotations

import dataclasses

from twistalex import seifert
from twistalex.errors import InvariantError
from twistalex.exactla import IntMatrix
from twistalex.seifert import SeifertMatrix


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product a b, each entry a sum over one row of a and one column
    of b."""
    cols = b.transpose().to_rows()
    return IntMatrix(a.rows, b.cols, [sum(x * y for x, y in zip(row, col))
                                      for row in a.to_rows() for col in cols])


def matpow(a: IntMatrix, n: int) -> IntMatrix:
    """a^n for n >= 0, reading the bits of n from the top: one squaring per
    bit after the leading one, and one product by a per such bit that is
    set (n = 126 takes 6 + 5 = 11 products)."""
    if n == 0:
        return IntMatrix.identity(a.rows)
    acc = a
    for bit in bin(n)[3:]:
        acc = matmul(acc, acc)
        if bit == "1":
            acc = matmul(acc, a)
    return acc


def branched_presentation(s: SeifertMatrix, d: int) -> IntMatrix:
    """The block-tridiagonal presentation matrix of H1 of the d-fold
    branched cyclic cover: diagonal blocks S + S^T, superdiagonal -S^T,
    subdiagonal -S, with d - 1 block rows.

    Generators are ordered sheet-major: block row j holds the meridians
    gamma_{1j} .. gamma_{mj} of sheet j.  More than
    seifert.MAX_PRESENTATION_ROWS rows raise SizeLimitError before anything
    is allocated.
    """
    m = s.matrix
    n = m.rows
    seifert._check_cover(n, d)
    size = n * (d - 1)
    rows = [[0] * size for _ in range(size)]
    # (block row - block column, block): diagonal, subdiagonal, superdiagonal
    sr, tr = m.to_rows(), m.transpose().to_rows()
    blocks = ((0, [[a + b for a, b in zip(u, v)] for u, v in zip(sr, tr)]),
              (1, [[-a for a in u] for u in sr]), (-1, [[-a for a in v] for v in tr]))
    for jb in range(d - 1 if n else 0):  # the unknot (n = 0) has no blocks
        for offset, block in blocks:
            ib = jb + offset
            if 0 <= ib < d - 1:
                for i in range(n):
                    rows[ib * n + i][jb * n : (jb + 1) * n] = block[i]
    return IntMatrix(size, size, [x for r in rows for x in r])


@dataclasses.dataclass(frozen=True)
class MonodromyPower:
    """H = S^-1 S^T together with det(H^n - I) for the requested power."""

    h: IntMatrix
    n: int
    det_power_minus_identity: int


def monodromy_power_presentation(s: SeifertMatrix, n: int) -> MonodromyPower:
    """For a nonsingular unimodular S, H^n - I presents H1 of the n-fold
    branched cover, where H = S^-1 S^T."""
    if n < 2:
        raise ValueError("needs n >= 2")
    m = s.matrix
    det, h = m.solve(m.transpose())
    if h is None:
        raise InvariantError(f"det(S) = {det}; need a unimodular Seifert matrix")
    d = (matpow(h, n) - IntMatrix.identity(h.rows)).det()
    return MonodromyPower(h=h, n=n, det_power_minus_identity=d)
