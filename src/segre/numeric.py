"""Floating-point oracle for the exponent structure of a pencil.

Independently of the exact path, the elementary-divisor exponents can be
recovered numerically: form M = V^-1 U, cluster its eigenvalues, and read
the block-size partition of each cluster off the rank staircase of powers
of M - alpha*I.  numpy is imported on the first call, so the exact path
never loads it.  The oracle exists to cross-validate, so it refuses with
``IllConditionedError`` instead of guessing whenever clustering or the
staircase is ambiguous at the given tolerances.
"""

from __future__ import annotations

from ._record import Record
from .errors import IllConditionedError
from .pencil import QuadricPencil, _cleared_int_pair
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

    Requires det V != 0 (run member selection first).  A computed multiple
    eigenvalue of defect k splits into a cloud of radius roughly
    (backward error)^(1/k), so a literal linking radius of ``tol_cluster``
    would shatter every cluster of a Jordan block of size three or more at
    double precision.  Clusters are therefore formed by single linkage at
    the perturbation-aware radius scale * tol_cluster**(1/3), with the
    cluster mean (accurate to first order) as representative; two
    representatives closer than 10 * tol_cluster * scale are ambiguous and
    refused.  Ranks of (M - alpha*I)^k use singular values thresholded
    relative to the largest one; the number of blocks of size >= k is
    r_{k-1} - r_k, and any staircase that fails to reach the cluster's
    multiplicity is refused as well.  The threshold for the k-th power is
    tol_rank * sigma_1(M - alpha*I)**k: the k-th power of a matrix with a
    defective eigenvalue is numerically the zero matrix once k reaches the
    block size, so the comparison scale has to come from the unpowered
    matrix.  The first power's rank is read off the singular values that
    give sigma_1.
    """
    import numpy as np

    if p.det_v == 0:
        raise ValueError("numeric oracle needs det V != 0; select a member first")
    size = p.size
    iu, iv, mult = _cleared_int_pair(p)
    try:  # int / int rounds correctly, as float(Fraction) does
        u = np.array([[c / mult for c in row] for row in iu])
        v = np.array([[c / mult for c in row] for row in iv])
    except OverflowError as exc:
        raise IllConditionedError(f"pencil entries exceed double precision: {exc}") from exc
    m = np.linalg.solve(v, u)

    eigs = sorted(np.linalg.eigvals(m), key=lambda z: (z.real, z.imag))
    scale = max(1.0, max(abs(z) for z in eigs))
    link_radius = scale * tol_cluster ** (1.0 / 3.0)

    groups: list[list[complex]] = []
    for z in eigs:
        linked = [g for g in groups if any(abs(z - w) <= link_radius for w in g)]
        if linked:
            merged = linked[0]
            merged.append(z)
            for g in linked[1:]:
                merged.extend(g)
                groups.remove(g)
        else:
            groups.append([z])

    centers = [sum(g) / len(g) for g in groups]
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            if abs(centers[i] - centers[j]) < 10 * tol_cluster * scale:
                raise IllConditionedError(
                    f"eigenvalue clusters {centers[i]:.6g} and {centers[j]:.6g} "
                    f"are closer than 10x the clustering tolerance"
                )

    clusters: list[Cluster] = []
    for g, center in zip(groups, centers):
        mult = len(g)
        shifted = m - center * np.eye(size)
        sv = np.linalg.svd(shifted, compute_uv=False)
        sigma1 = float(sv[0])
        ranks = [size]
        power = shifted
        for k in range(1, mult + 1):
            if k > 1:
                power = power @ shifted
                sv = np.linalg.svd(power, compute_uv=False)
            ranks.append(int(np.count_nonzero(sv > tol_rank * sigma1**k)))
        if ranks[-1] != size - mult:
            raise IllConditionedError(
                f"rank staircase of cluster {center:.6g} does not reach "
                f"corank {mult}: ranks {ranks}"
            )
        blocks_ge = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
        partition: list[int] = []
        for k, count in enumerate(blocks_ge, start=1):
            exactly = count - (blocks_ge[k] if k < len(blocks_ge) else 0)
            if exactly < 0:
                raise IllConditionedError(
                    f"non-monotone rank staircase for cluster {center:.6g}"
                )
            partition.extend([k] * exactly)
        if sum(partition) != mult:
            raise IllConditionedError(
                f"partition {partition} of cluster {center:.6g} does not sum "
                f"to its multiplicity {mult}"
            )
        clusters.append(Cluster(complex(center), tuple(sorted(partition, reverse=True))))

    if sum(sum(c.partition) for c in clusters) != size:
        raise IllConditionedError("cluster partitions do not cover the spectrum")
    return NumericPartition(tuple(clusters))
