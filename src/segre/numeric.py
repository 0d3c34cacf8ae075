"""Floating-point oracle for the Segre symbol of a pencil.

Independently of the exact path, the elementary-divisor exponents can be
recovered numerically: form M = V^-1 U, cluster its eigenvalues, and read
the block-size partition of each cluster off the rank staircase of powers
of M - alpha*I: one scan of the eigenvalue pairs links the clusters, one
SVD call covers the stack of every shifted matrix and its powers, and one
bisection of each row of sorted singular values counts its rank.  numpy
is imported on the first call, so the exact path never loads it.  The oracle
exists to cross-validate, so it refuses with ``IllConditionedError``
instead of guessing whenever clustering or the staircase is ambiguous at
its fixed tolerances, or double precision cannot hold the pencil.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, combinations

from ._record import Record
from .errors import IllConditionedError, InternalConsistencyError
from .pencil import QuadricPencil, _partition, select_nonsingular_member
from .symbol import Group, SegreSymbol

__all__ = ["NumericRoot", "numeric_exponent_partitions"]

_CLUSTER_TOL = 1e-6
_RANK_TOL = 1e-8


class NumericRoot(Record):
    value: complex  # the mean of an eigenvalue cluster

    def __init__(self, value: complex):
        self.__dict__["value"] = value

    def describe(self) -> str:
        return f"{self.value:.6g}"


def numeric_exponent_partitions(p: QuadricPencil) -> SegreSymbol:
    """The Segre symbol of ``select_nonsingular_member(p)``, read off the
    eigenvalues of V^-1 U: one group per eigenvalue cluster, in cluster
    order (not canonicalized), with a ``NumericRoot`` at the cluster mean.

    Raises ``NoSmoothMemberError`` when every member is singular.  A
    computed multiple eigenvalue of defect k splits into a cloud of radius
    roughly (backward error)^(1/k), so a literal linking radius of
    ``_CLUSTER_TOL`` would shatter every cluster of a Jordan block of size
    three or more at double precision.  Clusters are therefore formed by
    single linkage at the perturbation-aware radius
    scale * _CLUSTER_TOL**(1/3), with the cluster mean (accurate to first
    order) as representative; two representatives closer than
    10 * _CLUSTER_TOL * scale are ambiguous and refused.  Ranks of
    (M - alpha*I)^k use singular values thresholded relative to the
    largest one; the number of blocks of size >= k is r_{k-1} - r_k, and a
    staircase that fails to reach the cluster's multiplicity or is not
    monotone is refused as well.  The threshold for the k-th power is
    _RANK_TOL * sigma_1(M - alpha*I)**k: the k-th power of a matrix with a
    defective eigenvalue is numerically the zero matrix once k reaches the
    block size, so the comparison scale has to come from the unpowered
    matrix.
    """
    import numpy as np

    p = select_nonsingular_member(p)
    size = p.size
    iu, iv, mult = p._iu, p._iv, p._mult
    try:  # float(int) and int / int round correctly, as float(Fraction) does
        rows = iu + iv if mult == 1 else [[c / mult for c in row] for row in iu + iv]
        uv = np.array(rows, float)
    except OverflowError as exc:  # float(int) words it otherwise: keep the int / int text
        raise IllConditionedError(
            "pencil entries exceed double precision: integer division result too large for a float"
        ) from exc
    try:
        m = np.linalg.solve(uv[size:], uv[:size])
        if not np.isfinite(m).all():
            raise IllConditionedError("V^-1 U overflows double precision")
        values = np.linalg.eigvals(m)
        eigs = values.tolist()
        scale = max(1.0, max(map(abs, eigs)))
        link_radius = scale * _CLUSTER_TOL ** (1.0 / 3.0)

        # one scan of the pairs in (real, imag) order; only linked eigenvalues merge
        order = sorted(range(size), key=lambda j: (eigs[j].real, eigs[j].imag))
        pairs = combinations(order, 2)
        links = {(i, j) for i, j in pairs if abs(eigs[i] - eigs[j]) <= link_radius}
        groups = [] if links else [[i] for i in order]  # indices into eigs
        for j in order if links else ():
            linked = [g for g in groups if any((i, j) in links for i in g)]
            for g in linked[1:]:
                groups.remove(g)
            if linked:
                linked[0] += [j] + [i for g in linked[1:] for i in g]
            else:
                groups.append([j])

        # numpy scalars: numpy's complex / int rounds unlike Python's
        centers = [sum(values[i] for i in g) / len(g) for g in groups]
        near = [c.item() for c in centers]
        for i, j in combinations(range(len(near)), 2):
            if abs(near[i] - near[j]) < 10 * _CLUSTER_TOL * scale:
                raise IllConditionedError(
                    f"eigenvalue clusters {centers[i]:.6g} and {centers[j]:.6g} "
                    f"are closer than 10x the clustering tolerance"
                )

        # one SVD call: every shifted matrix, then the powers 2..mult of each
        shifted = m - np.array(centers)[:, None, None] * np.eye(size)
        powers = []
        if links:  # else every cluster is one eigenvalue, with no power
            with np.errstate(over="ignore", invalid="ignore"):  # inf and nan fail the SVD
                for s, g in zip(shifted, groups):
                    powers += list(accumulate([s] * len(g), np.matmul))[1:]
        stack = np.concatenate((shifted, powers)) if powers else shifted
        sv = np.linalg.svd(stack, compute_uv=False)[:, ::-1].tolist()  # each row ascending

        out: list[Group] = []
        at = len(groups)
        for g, center, first in zip(groups, centers, sv):
            mult = len(g)
            ranks = [size]
            for k, row in enumerate([first] + sv[at : at + mult - 1], start=1):
                threshold = _RANK_TOL * first[-1] ** k  # first[-1] = sigma_1
                ranks.append(size - bisect_right(row, threshold))  # the values above it
            at += mult - 1
            if ranks[-1] != size - mult:
                raise IllConditionedError(
                    f"rank staircase of cluster {center:.6g} does not reach "
                    f"corank {mult}: ranks {ranks}"
                )
            partition = (1,)  # one eigenvalue, of corank 1, is one block
            if mult > 1:
                try:  # the corank check makes the staircase sum to mult
                    partition = _partition(mult, [a - b for a, b in zip(ranks, ranks[1:])])
                except InternalConsistencyError:
                    raise IllConditionedError(
                        f"non-monotone rank staircase for cluster {center:.6g}"
                    ) from None
            out.append(Group(partition, NumericRoot(complex(center))))
    except (np.linalg.LinAlgError, OverflowError) as exc:
        raise IllConditionedError(f"double precision fails on V^-1 U: {exc}") from exc
    return SegreSymbol(out)
