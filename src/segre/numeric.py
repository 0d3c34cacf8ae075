"""Floating-point oracle for the exponent structure of a pencil.

Independently of the exact path, the elementary-divisor exponents can be
recovered numerically: form M = V^-1 U, cluster its eigenvalues, and read
the block-size partition of each cluster off the rank staircase of powers
of M - alpha*I: one SVD call over the stack of every shifted matrix and
its powers, with clustering and rank counts on Python numbers.  numpy is
imported on the first call, so the exact path never loads it.  The oracle
exists to cross-validate, so it refuses with ``IllConditionedError``
instead of guessing whenever clustering or the staircase is ambiguous at
the given tolerances, or double precision cannot hold the pencil.
"""

from __future__ import annotations

from itertools import accumulate, combinations

from ._record import Record
from .errors import IllConditionedError, InternalConsistencyError, PencilError
from .pencil import QuadricPencil, _partition
from .symbol import Group, SegreSymbol

__all__ = ["Cluster", "NumericPartition", "numeric_exponent_partitions"]

DEFAULT_CLUSTER_TOL = 1e-6
DEFAULT_RANK_TOL = 1e-8


class Cluster(Record):
    eigenvalue: complex
    partition: tuple[int, ...]  # block sizes, descending

    def __init__(self, eigenvalue: complex, partition: tuple[int, ...]):
        d = self.__dict__  # one per eigenvalue cluster: bind without the generic code
        d["eigenvalue"] = eigenvalue
        d["partition"] = partition


class NumericPartition(Record):
    clusters: tuple[Cluster, ...]

    def exponent_structure(self) -> tuple[tuple[int, ...], ...]:
        """Multiset of cluster partitions, ordered like the exact symbol."""
        return SegreSymbol([Group(c.partition) for c in self.clusters]).exponent_structure()


def numeric_exponent_partitions(
    p: QuadricPencil,
    tol_cluster: float = DEFAULT_CLUSTER_TOL,
    tol_rank: float = DEFAULT_RANK_TOL,
) -> NumericPartition:
    """Cluster eigenvalues of V^-1 U and rank-staircase each cluster.

    Requires det V != 0 (run member selection first), else raises
    ``PencilError``.  A computed multiple eigenvalue of defect k splits
    into a cloud of radius roughly (backward error)^(1/k), so a literal
    linking radius of ``tol_cluster`` would shatter every cluster of a
    Jordan block of size three or more at double precision.  Clusters
    are therefore formed by single linkage at the perturbation-aware
    radius scale * tol_cluster**(1/3), with the
    cluster mean (accurate to first order) as representative; two
    representatives closer than 10 * tol_cluster * scale are ambiguous and
    refused.  Ranks of (M - alpha*I)^k use singular values thresholded
    relative to the largest one; the number of blocks of size >= k is
    r_{k-1} - r_k, and a staircase that fails to reach the cluster's
    multiplicity or is not monotone is refused as well.  The threshold
    for the k-th power is tol_rank * sigma_1(M - alpha*I)**k: the k-th
    power of a matrix with a defective eigenvalue is numerically the zero
    matrix once k reaches the block size, so the comparison scale has to
    come from the unpowered matrix.
    """
    import numpy as np

    if p.det_v == 0:
        raise PencilError("numeric oracle needs det V != 0; select a member first")
    size = p.size
    iu, iv, mult = p._iu, p._iv, p._mult
    try:  # int / int rounds correctly, as float(Fraction) does
        u = np.array([[c / mult for c in row] for row in iu])
        v = np.array([[c / mult for c in row] for row in iv])
    except OverflowError as exc:
        raise IllConditionedError(f"pencil entries exceed double precision: {exc}") from exc
    try:
        m = np.linalg.solve(v, u)
        if not np.isfinite(m).all():
            raise IllConditionedError("V^-1 U overflows double precision")
        values = np.linalg.eigvals(m)
        eigs = values.tolist()
        scale = max(1.0, max(abs(z) for z in eigs))
        link_radius = scale * tol_cluster ** (1.0 / 3.0)

        groups: list[list[int]] = []  # indices into eigs, linked in (real, imag) order
        for i in sorted(range(size), key=lambda j: (eigs[j].real, eigs[j].imag)):
            linked = [g for g in groups if any(abs(eigs[i] - eigs[j]) <= link_radius for j in g)]
            for g in linked[1:]:
                groups.remove(g)
            if linked:
                linked[0] += [i] + [j for g in linked[1:] for j in g]
            else:
                groups.append([i])

        # numpy scalars: numpy's complex / int rounds unlike Python's
        centers = [sum(values[i] for i in g) / len(g) for g in groups]
        near = [c.item() for c in centers]
        for i, j in combinations(range(len(near)), 2):
            if abs(near[i] - near[j]) < 10 * tol_cluster * scale:
                raise IllConditionedError(
                    f"eigenvalue clusters {centers[i]:.6g} and {centers[j]:.6g} "
                    f"are closer than 10x the clustering tolerance"
                )

        # one SVD call: every shifted matrix, then the powers 2..mult of each
        shifted = m - np.array(centers)[:, None, None] * np.eye(size)
        powers = []
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan fail the SVD
            for s, g in zip(shifted, groups):
                powers += list(accumulate([s] * len(g), np.matmul))[1:]
        stack = np.concatenate((shifted, powers)) if powers else shifted
        sv = np.linalg.svd(stack, compute_uv=False).tolist()

        clusters: list[Cluster] = []
        at = len(groups)
        for g, center, first in zip(groups, centers, sv):
            mult = len(g)
            ranks = [size]
            for k, row in enumerate([first] + sv[at : at + mult - 1], start=1):
                threshold = tol_rank * first[0] ** k  # first[0] = sigma_1
                ranks.append(sum(s > threshold for s in row))
            at += mult - 1
            if ranks[-1] != size - mult:
                raise IllConditionedError(
                    f"rank staircase of cluster {center:.6g} does not reach "
                    f"corank {mult}: ranks {ranks}"
                )
            try:  # the corank check makes the staircase sum to mult
                partition = _partition(mult, [a - b for a, b in zip(ranks, ranks[1:])])
            except InternalConsistencyError:
                raise IllConditionedError(
                    f"non-monotone rank staircase for cluster {center:.6g}"
                ) from None
            clusters.append(Cluster(complex(center), partition))
    except (np.linalg.LinAlgError, OverflowError) as exc:
        raise IllConditionedError(f"double precision fails on V^-1 U: {exc}") from exc
    return NumericPartition(tuple(clusters))
