import hashlib
import os
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import segre.numeric
from segre.acceptance import _degenerate_pairs
from segre.errors import IllConditionedError, InternalConsistencyError, NoSmoothMemberError
from segre.numeric import NumericRoot, numeric_exponent_partitions
from segre.catalog import CATALOG_ORDER
from segre.pencil import (
    MAX_SIZE,
    QuadricPencil,
    _bareiss,
    _partition,
    as_matrix,
    congruent,
    diagonal,
    identity,
    select_nonsingular_member,
)
from segre.symbol import Group, SegreSymbol, build_normal_form, compute_symbol, random_instance


class TestExamples:
    def test_2111_normal_pair(self):
        p = build_normal_form("[2111]", [2, 3, 4, 5])
        result = numeric_exponent_partitions(p)
        by_value = {round(g.root.value.real): g.exponents for g in result.groups}
        assert by_value == {2: (2,), 3: (1,), 4: (1,), 5: (1,)}
        assert all(abs(g.root.value.imag) < 1e-9 for g in result.groups)

    def test_scalar_pencil_single_cluster(self):
        p = QuadricPencil(diagonal([2] * 5), identity(5))
        result = numeric_exponent_partitions(p)
        assert len(result.groups) == 1
        assert result.groups[0].exponents == (1, 1, 1, 1, 1)
        assert abs(result.groups[0].root.value - 2) < 1e-9
        assert result.root_descriptions() == ["2+0j"]

    def test_congruence_of_113_matches_exact(self):
        inst = random_instance("[113]", 42)
        exact = compute_symbol(inst).exponent_structure()
        assert numeric_exponent_partitions(inst).exponent_structure() == exact

    def test_partitions_sum_to_five(self):
        for seed in range(5):
            inst = random_instance("[(21)(11)]", seed)
            result = numeric_exponent_partitions(inst)
            assert sum(sum(g.exponents) for g in result.groups) == 5

    def test_returns_a_symbol_of_numeric_groups(self):
        # one group per cluster, in cluster order: not canonicalized
        result = numeric_exponent_partitions(build_normal_form("[2111]", [5, 2, 3, 4]))
        assert type(result) is SegreSymbol
        assert [type(g.root) for g in result.groups] == [NumericRoot] * 4
        assert [g.exponents for g in result.groups] == [(1,), (1,), (1,), (2,)]
        assert result == compute_symbol(build_normal_form("[2111]", [5, 2, 3, 4]))

    def test_singular_v_gets_the_exact_symbol(self):
        # det V = 0: the oracle selects the member compute_symbol selects
        p = QuadricPencil(diagonal([1, 2, 3, 4, 5]), diagonal([1, 1, 1, 1, 0]))
        assert p.det_v == 0
        assert numeric_exponent_partitions(p) == compute_symbol(p) == "[11111]"


def _refused_before_an_overflow() -> QuadricPencil:
    """A pencil whose first cluster is refused and whose second one has a
    rank threshold past double precision.  The eigenvalue -1 comes first,
    and M + I has sigma_1 = 10^200, so its threshold leaves rank 1, not 4;
    the 2-block at 0 after it has sigma_1 = 10^200 too, whose square
    overflows a float."""
    e = Fraction(1, 10**200)
    v = [[0, e, 0, 0, 0], [e, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
    return QuadricPencil(diagonal([0, 1, -1, 2, 3]), v)


class TestRefusal:
    @pytest.mark.parametrize("name", sorted(_degenerate_pairs()))
    def test_no_smooth_member_raises(self, name):
        with pytest.raises(NoSmoothMemberError):
            numeric_exponent_partitions(_degenerate_pairs()[name])

    def test_nearly_coincident_roots_refused(self):
        p = build_normal_form(
            "[11111]", [Fraction(1), Fraction(100001, 100000), 3, 4, 5]
        )
        with pytest.raises(IllConditionedError):
            numeric_exponent_partitions(p)

    def test_thousand_digit_entries_refused(self):
        p = QuadricPencil(diagonal([10**999 * k for k in range(1, 6)]), identity(5))
        with pytest.raises(
            IllConditionedError,
            match="pencil entries exceed double precision: integer division result too large for a float",
        ):
            numeric_exponent_partitions(p)

    def test_tight_tolerance_refuses_rather_than_guesses(self, monkeypatch):
        # a 4-block's eigenvalue cloud is far wider than this clustering radius
        monkeypatch.setattr(segre.numeric, "_CLUSTER_TOL", 1e-14)
        monkeypatch.setattr(segre.numeric, "_RANK_TOL", 1e-14)
        p = random_instance("[(41)]", 3)
        with pytest.raises(IllConditionedError):
            numeric_exponent_partitions(p)

    def test_v_singular_in_double_precision_refused(self):
        # det V = 10^-400 exactly, but V's last entry rounds to 0.0
        p = QuadricPencil(diagonal([1, 2, 3, 4, 5]), diagonal([1, 1, 1, 1, Fraction(1, 10**400)]))
        assert p.det_v != 0
        with pytest.raises(IllConditionedError, match="Singular matrix"):
            numeric_exponent_partitions(p)

    def test_overflowing_v_inverse_u_refused(self):
        # every entry is a double, but 10^300 / 10^-10 is not
        p = QuadricPencil(diagonal([10**300, 2, 3, 4, 5]), diagonal([Fraction(1, 10**10), 1, 1, 1, 1]))
        with pytest.raises(IllConditionedError, match="overflows double precision"):
            numeric_exponent_partitions(p)

    def test_overflowing_rank_threshold_refused(self):
        # a 2-block at 0 whose M - 0*I has sigma_1 = 10^200: its square is
        # the zero matrix, but the threshold's sigma_1^2 overflows a float
        e = Fraction(1, 10**200)
        v = [[0, e, 0, 0, 0], [e, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
        p = QuadricPencil(diagonal([0, 1, 1, 2, 3]), v)
        assert compute_symbol(p).exponent_structure() == ((2,), (1,), (1,), (1,))
        with pytest.raises(IllConditionedError, match="double precision fails"):
            numeric_exponent_partitions(p)

    def test_a_cluster_refused_before_a_later_threshold_overflows(self):
        with pytest.raises(IllConditionedError, match=r"corank 1: ranks \[5, 1\]$"):
            numeric_exponent_partitions(_refused_before_an_overflow())

    def test_overflowing_powers_refused_with_warnings_as_errors(self):
        # the square of M - 10^300*I overflows; no RuntimeWarning escapes
        # where warnings are errors, and the refusal is the default run's
        p = QuadricPencil(diagonal([10**300, 10**300, 2, 3, 4]), identity(5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditionedError, match="SVD did not converge"):
                numeric_exponent_partitions(p)


class TestAgreement:
    @pytest.mark.parametrize("symbol", ["[11111]", "[2111]", "[(11)(11)1]", "[5]", "[(41)]"])
    def test_exact_and_numeric_agree(self, symbol):
        for seed in range(3):
            inst = random_instance(symbol, 500 + seed)
            exact = compute_symbol(inst).exponent_structure()
            numeric = numeric_exponent_partitions(inst).exponent_structure()
            assert numeric == exact

    def test_a_bridging_eigenvalue_merges_two_clusters(self):
        # V^-1 U has eigenvalues 1 +- i/25, 10001/10000, 3 and 5.  The link
        # radius is 5 * _CLUSTER_TOL**(1/3) = 0.05: the conjugates, 0.08
        # apart, start two clusters, and 1.0001, 0.04 from each, links them
        # into one.  The oracle refuses that cluster or agrees with the
        # exact path.
        import numpy as np

        c = Fraction(1, 25)
        u = [[1, c, 0, 0, 0], [c, -1, 0, 0, 0], [0, 0, Fraction(10001, 10000), 0, 0],
             [0, 0, 0, 3, 0], [0, 0, 0, 0, 5]]
        p = QuadricPencil(u, diagonal([1, -1, 1, 1, 1]))
        m = np.linalg.solve(np.array(diagonal([1, -1, 1, 1, 1]), float), np.array(u, float))
        near_one = [z for z in np.linalg.eigvals(m).tolist() if abs(z - 1) < 0.1]
        low, real, high = sorted(near_one, key=lambda z: z.imag)
        radius = 5 * segre.numeric._CLUSTER_TOL ** (1 / 3)
        assert abs(high - low) > radius
        assert abs(real - low) <= radius and abs(real - high) <= radius
        try:
            got = numeric_exponent_partitions(p)
        except IllConditionedError:
            return
        assert got == compute_symbol(p) == "[11111]"


def test_exact_path_does_not_import_numpy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    forms = "X0^2 + 2*X1^2 + 3*X2^2 + 4*X3^2 + 5*X4^2 ; X0^2 + X1^2 + X2^2 + X3^2 + X4^2"
    code = (
        "import segre.cli, sys; assert 'numpy' not in sys.modules; "
        f"segre.cli.main(['analyze', '--poly', {forms!r}]); assert 'numpy' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True)


# every weight-5 symbol: the 16 of the catalog and the 11 off it
WEIGHT_FIVE_SYMBOLS = CATALOG_ORDER + (
    "[(111)11]", "[(22)1]", "[(211)1]", "[(1111)1]", "[(111)2]", "[(111)(11)]",
    "[(32)]", "[(311)]", "[(221)]", "[(2111)]", "[(11111)]",
)
# taken before the staircase read its first rank off the sigma_1 SVD
ORACLE_SHA256 = "3f2ed19be25d5b37a4f11300b8242463bf07dc2bf5f580984f16f3e6a46f286e"


def _symmetric_pencil(seed: int) -> QuadricPencil:
    rng = random.Random(seed)
    mats = []
    for _ in range(2):
        m = [[0] * 5 for _ in range(5)]
        for i in range(5):
            for j in range(i, 5):
                m[i][j] = m[j][i] = rng.randint(-999, 999)
        mats.append(as_matrix(m))
    return select_nonsingular_member(QuadricPencil(*mats))


def _oracle_pencils() -> list[QuadricPencil]:
    pencils = [random_instance(s, seed) for s in WEIGHT_FIVE_SYMBOLS for seed in range(3)]
    return pencils + [_symmetric_pencil(seed) for seed in range(50)]


def _oracle_text(p: QuadricPencil) -> str:
    """The oracle's partitions, or its refusal with the cluster centres left
    out: the last bits of an eigenvalue depend on the LAPACK build, the
    ranks and partitions do not."""
    try:
        result = numeric_exponent_partitions(p)
    except IllConditionedError as exc:
        return "refused: " + re.sub(r"clusters? \S+( and \S+)?", "cluster .", str(exc))
    return repr([g.exponents for g in result.groups])


def test_oracle_digest_is_pinned():
    texts = [_oracle_text(p) for p in _oracle_pencils()]
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    refused = sum(t.startswith("refused") for t in texts)
    assert (len(texts), refused, digest) == (131, 3, ORACLE_SHA256)


def _near_miss_pencils() -> list[QuadricPencil]:
    """[11111], [2111] and [(11)111] with roots 1, 1 + d, 2, 3 (and 4) for
    d = 10^-2, ..., 10^-12, under one congruence with entries in -3..3: 33
    pencils whose nearby eigenvalues link into clusters."""
    rng = random.Random(2026)
    while True:
        a = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]
        if _bareiss(a)[1]:
            break
    pencils = []
    for e in range(2, 13):
        d = 1 + Fraction(1, 10**e)
        for symbol, roots in [("[11111]", [1, d, 2, 3, 4]), ("[2111]", [1, d, 2, 3]),
                              ("[(11)111]", [1, d, 2, 3])]:
            pencils.append(congruent(build_normal_form(symbol, roots), a))
    return pencils


def _reference_oracle(p):
    """The oracle as a loop over clusters, with one SVD per cluster and
    power and its own staircase-to-partition loop, kept to check the
    stacked version against, at the module's tolerances."""
    import numpy as np

    tol_cluster, tol_rank = segre.numeric._CLUSTER_TOL, segre.numeric._RANK_TOL
    p = select_nonsingular_member(p)
    size = p.size
    iu, iv, mult = p._iu, p._iv, p._mult
    try:
        u = np.array([[c / mult for c in row] for row in iu])
        v = np.array([[c / mult for c in row] for row in iv])
    except OverflowError as exc:
        raise IllConditionedError(f"pencil entries exceed double precision: {exc}") from exc
    m = np.linalg.solve(v, u)

    eigs = sorted(np.linalg.eigvals(m), key=lambda z: (z.real, z.imag))
    scale = max(1.0, max(abs(z) for z in eigs))
    link_radius = scale * tol_cluster ** (1.0 / 3.0)

    groups = []
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

    out = []
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
        partition = _reference_partition(mult, [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))])
        if partition is None:
            raise IllConditionedError(f"non-monotone rank staircase for cluster {center:.6g}")
        out.append(Group(partition, NumericRoot(complex(center))))
    return SegreSymbol(out)


def _reference_partition(mult: int, blocks_ge: list[int]) -> tuple[int, ...] | None:
    """The partition with blocks_ge[k - 1] blocks of size k or more, by the
    oracle's old loop, or None for a staircase it refused as non-monotone."""
    partition = []
    for k, count in enumerate(blocks_ge, start=1):
        exactly = count - (blocks_ge[k] if k < len(blocks_ge) else 0)
        if exactly < 0:
            return None
        partition.extend([k] * exactly)
    # the loop's other refusal: after the corank check it cannot fire
    assert sum(partition) == mult
    return tuple(sorted(partition, reverse=True))


def _outcome(oracle, p: QuadricPencil):
    """Each cluster's eigenvalue, to the bit, and partition; or the refusal."""
    try:
        result = oracle(p)
    except Exception as exc:
        return type(exc), str(exc)
    return [(repr(g.root.value), g.exponents) for g in result.groups]


@pytest.mark.parametrize("tol", [
    {},
    {"_CLUSTER_TOL": 1e-14, "_RANK_TOL": 1e-14},
    {"_CLUSTER_TOL": 1e-3},
], ids=["default", "tight", "loose"])
def test_stacked_svd_matches_the_reference_loop(monkeypatch, tol):
    for name, value in tol.items():
        monkeypatch.setattr(segre.numeric, name, value)
    # the root 0 of -diag(0, ..., 4) is one eigenvalue, -0.0, whose centre is 0j
    pencils = _oracle_pencils() + _near_miss_pencils() + [
        QuadricPencil(diagonal([0, 1, 2, 3, 4]), diagonal([-1] * 5)),
        _refused_before_an_overflow(),
    ]
    got = [_outcome(numeric_exponent_partitions, p) for p in pencils]
    assert got == [_outcome(_reference_oracle, p) for p in pencils]
    # refusals are compared too: 3, 5 and 15 of the 131 oracle pencils with numpy 2.4's LAPACK
    assert any(isinstance(g, tuple) for g in got)


def test_one_lapack_call_of_each_kind(monkeypatch):
    import numpy as np

    calls = []

    def counted(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in ("solve", "eigvals", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    for symbol in ("[11111]", "[(41)]", "[(11)(11)1]"):  # powers up to the fifth, two blocks
        calls.clear()
        numeric_exponent_partitions(random_instance(symbol, 1))
        assert sorted(calls) == ["eigvals", "solve", "svd"]


@pytest.mark.parametrize("mult", range(1, MAX_SIZE + 1))
def test_partition_matches_the_reference_loop(mult):
    """Every rank staircase that passes the corank check for a cluster of
    multiplicity ``mult`` in a MAX_SIZE pencil: r_0 = MAX_SIZE, r_mult =
    MAX_SIZE - mult, and each r_k between them anything in 0..MAX_SIZE.  A
    smaller pencil's staircases are among these."""
    for inner in product(range(MAX_SIZE + 1), repeat=mult - 1):
        ranks = (MAX_SIZE, *inner, MAX_SIZE - mult)
        blocks_ge = [a - b for a, b in zip(ranks, ranks[1:])]
        try:
            got = _partition(mult, blocks_ge)
        except InternalConsistencyError:
            got = None
        assert got == _reference_partition(mult, blocks_ge), ranks
