import hashlib
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from segre.errors import IllConditionedError
from segre.numeric import numeric_exponent_partitions
from segre.catalog import CATALOG_ORDER
from segre.pencil import QuadricPencil, as_matrix, diagonal, identity, select_nonsingular_member
from segre.symbol import build_normal_form, compute_symbol, random_instance


class TestExamples:
    def test_2111_normal_pair(self):
        p = build_normal_form("[2111]", [2, 3, 4, 5])
        result = numeric_exponent_partitions(p)
        by_value = {round(c.eigenvalue.real): c.partition for c in result.clusters}
        assert by_value == {2: (2,), 3: (1,), 4: (1,), 5: (1,)}
        assert all(abs(c.eigenvalue.imag) < 1e-9 for c in result.clusters)

    def test_scalar_pencil_single_cluster(self):
        p = QuadricPencil(diagonal([2] * 5), identity(5))
        result = numeric_exponent_partitions(p)
        assert len(result.clusters) == 1
        assert result.clusters[0].partition == (1, 1, 1, 1, 1)
        assert abs(result.clusters[0].eigenvalue - 2) < 1e-9

    def test_congruence_of_113_matches_exact(self):
        inst = random_instance("[113]", 42)
        exact = compute_symbol(inst).exponent_structure()
        assert numeric_exponent_partitions(inst).exponent_structure() == exact

    def test_partitions_sum_to_five(self):
        for seed in range(5):
            inst = random_instance("[(21)(11)]", seed)
            result = numeric_exponent_partitions(inst)
            assert sum(sum(c.partition) for c in result.clusters) == 5


class TestRefusal:
    def test_requires_nonsingular_v(self):
        p = QuadricPencil(diagonal([1, 2, 3, 4, 5]), diagonal([1, 1, 1, 1, 0]))
        with pytest.raises(ValueError):
            numeric_exponent_partitions(p)

    def test_nearly_coincident_roots_refused(self):
        p = build_normal_form(
            "[11111]", [Fraction(1), Fraction(100001, 100000), 3, 4, 5]
        )
        with pytest.raises(IllConditionedError):
            numeric_exponent_partitions(p)

    def test_thousand_digit_entries_refused(self):
        p = QuadricPencil(diagonal([10**999 * k for k in range(1, 6)]), identity(5))
        with pytest.raises(IllConditionedError):
            numeric_exponent_partitions(p)

    def test_tight_tolerance_refuses_rather_than_guesses(self):
        # a 4-block's eigenvalue cloud is far wider than this clustering radius
        p = random_instance("[(41)]", 3)
        with pytest.raises(IllConditionedError):
            numeric_exponent_partitions(p, tol_cluster=1e-14, tol_rank=1e-14)


class TestAgreement:
    @pytest.mark.parametrize("symbol", ["[11111]", "[2111]", "[(11)(11)1]", "[5]", "[(41)]"])
    def test_exact_and_numeric_agree(self, symbol):
        for seed in range(3):
            inst = random_instance(symbol, 500 + seed)
            exact = compute_symbol(inst).exponent_structure()
            numeric = numeric_exponent_partitions(inst).exponent_structure()
            assert numeric == exact


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


def _oracle_text(p: QuadricPencil) -> str:
    """The oracle's partitions, or its refusal with the cluster centres left
    out: the last bits of an eigenvalue depend on the LAPACK build, the
    ranks and partitions do not."""
    try:
        result = numeric_exponent_partitions(p)
    except IllConditionedError as exc:
        return "refused: " + re.sub(r"clusters? \S+( and \S+)?", "cluster .", str(exc))
    return repr([c.partition for c in result.clusters])


def test_oracle_digest_is_pinned():
    pencils = [random_instance(s, seed) for s in WEIGHT_FIVE_SYMBOLS for seed in range(3)]
    pencils += [_symmetric_pencil(seed) for seed in range(50)]
    texts = [_oracle_text(p) for p in pencils]
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    refused = sum(t.startswith("refused") for t in texts)
    assert (len(texts), refused, digest) == (131, 3, ORACLE_SHA256)
