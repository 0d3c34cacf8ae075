"""Acceptance checks: exact identities the whole package must satisfy.

Each criterion freezes its expected values independently of the code
paths it exercises (table data as literals, oracle recomputation, round
trips through generators).  ``run_all`` returns one result per criterion;
the command line ``verify`` subcommand and the test suite both run these.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from fractions import Fraction

from ._record import Record
from .catalog import (
    CATALOG,
    CATALOG_ORDER,
    TABLE1_ORDER,
    TABLE2_ROWS,
    class_degree,
    transitions,
)
from .covers import BaseKind, SectionComponent, VertexPosition, covers_of
from .errors import IllConditionedError, NoSmoothMemberError
from .numeric import numeric_exponent_partitions
from .pencil import (
    QuadricPencil,
    as_matrix,
    change_basis,
    degeneracy_report,
    invariant_factors,
    select_nonsingular_member,
)
from .polynomial import _int_divide
from .symbol import (
    SegreSymbol,
    build_normal_form,
    canonicalize,
    compute_symbol,
    random_instance,
)

__all__ = ["CriterionResult", "run_all", "CRITERIA"]


class CriterionResult(Record):
    number: int
    name: str
    passed: bool
    detail: str


# Classes as printed in the three tables, keyed by canonical symbol; the
# only row where the printed value contradicts the class formula is
# [2111] (printed 8, formula 10): the formula value is frozen here and the
# printed value is asserted to be flagged in the catalog.
_TABLE1_CLASSES = {
    "[11111]": 12,
    "[2111]": 10,
    "[(11)111]": 8,
    "[2(11)1]": 6,
    "[(11)(11)1]": 4,
    "[311]": 9,
    "[221]": 8,
    "[(21)11]": 8,
    "[41]": 8,
    "[(31)1]": 6,
}
_TABLE2_CLASSES = {
    "[(11)111]": 8,
    "[(21)11]": 8,
    "[2(11)1]": 6,
    "[(11)(11)1]": 4,
    "[3(11)]": 5,
    "[(31)1]": 6,
    "[(21)2]": 6,
    "[(21)(11)]": 4,
    "[(41)]": 5,
}
_TABLE3_CLASSES = {"[32]": 7, "[5]": 7}


def criterion_1_catalog_classes() -> CriterionResult:
    """Class formula reproduces all 21 table rows."""
    rows = (
        [("table 1", s, c) for s, c in _TABLE1_CLASSES.items()]
        + [("table 2", s, c) for s, c in _TABLE2_CLASSES.items()]
        + [("table 3", s, c) for s, c in _TABLE3_CLASSES.items()]
    )
    assert len(rows) == 21
    bad = []
    for table, sym, expected in rows:
        row = CATALOG[sym]
        got = class_degree(row.singularities)
        if got != expected or row.class_degree != expected:
            bad.append(f"{table} {sym}: formula {got}, expected {expected}")
    flagged = CATALOG["[2111]"].printed_class_discrepancy
    if flagged != 8:
        bad.append(f"[2111] must flag the printed value 8, flags {flagged!r}")
    ok = not bad
    return CriterionResult(
        1, "catalog class reproduction", ok, "; ".join(bad) or f"{len(rows)}/21 classes match"
    )


def criterion_2_q_star_counts() -> CriterionResult:
    """Unbracketed 1s match the dual-quadric counts of the first table."""
    expected = (5, 3, 3, 1, 1, 2, 1, 2, 1, 1)
    got = tuple(SegreSymbol.parse(s).unbracketed_ones() for s in TABLE1_ORDER)
    ok = got == expected
    return CriterionResult(2, "Q* count identity", ok, f"{got} vs {expected}")


def criterion_3_smooth_quadric_identity() -> CriterionResult:
    """class = 4 + dual degree of the branch curve, for every quadric cover."""
    bad = []
    for sym in TABLE1_ORDER:
        cls = CATALOG[sym].class_degree
        quadric_covers = [
            c for c in covers_of(sym) if c.base is BaseKind.SMOOTH_QUADRIC
        ]
        if not quadric_covers:
            bad.append(f"{sym}: no smooth-quadric cover")
            continue
        for c in quadric_covers:
            if cls != 4 + c.branch_structure.dual_degree:
                bad.append(f"{sym}: {cls} != 4 + {c.branch_structure.dual_degree}")
    return CriterionResult(
        3, "smooth-quadric cover identity", not bad, "; ".join(bad) or "10/10 symbols"
    )


def criterion_4_cone_identities() -> CriterionResult:
    """Vertex-off rows have class = branch dual degree; vertex-on rows have
    the forced plane multiplicity (1 at a cusp or the branch's unique
    singular point, 2 at a node)."""
    bad = []
    checked = 0
    for row in TABLE2_ROWS:
        cls = CATALOG[row.symbol].class_degree
        matching = [
            c
            for c in covers_of(row.symbol)
            if c.base is BaseKind.QUADRATIC_CONE and c.source_group == row.source_group
        ]
        if not matching:
            bad.append(f"{row.symbol}: no cone cover from group {row.source_group}")
            continue
        cover = matching[0]
        checked += 1
        m = cls - cover.branch_structure.dual_degree
        if row.vertex is VertexPosition.OFF_BRANCH:
            if m != 0 or cover.vertex_on_branch is not VertexPosition.OFF_BRANCH:
                bad.append(f"{row.symbol}: off-branch row has m={m}")
        elif row.vertex is VertexPosition.NODE:
            if m != 2 or cover.vertex_on_branch is not VertexPosition.NODE:
                bad.append(f"{row.symbol}: node row has m={m}")
        else:  # cusp, or the branch's unique singular point
            if m != 1:
                bad.append(f"{row.symbol}: {row.vertex.value} row has m={m}")
        vterms = [
            t for t in cover.section.terms if t.component is SectionComponent.V_STAR
        ]
        if m == 0 and vterms:
            bad.append(f"{row.symbol}: unexpected v* term")
        if m > 0 and (len(vterms) != 1 or vterms[0].multiplicity != m):
            bad.append(f"{row.symbol}: section v* multiplicity mismatch")
    ok = not bad and checked == 10
    return CriterionResult(
        4, "cone cover identities", ok, "; ".join(bad) or f"{checked}/10 table rows"
    )


def criterion_5_round_trip() -> CriterionResult:
    """Normal form + random congruence always returns the same symbol."""
    bad = 0
    total = 0
    for sym in CATALOG_ORDER:
        want = canonicalize(sym)
        for i in range(100):
            total += 1
            got = compute_symbol(random_instance(sym, 10_000 + i))
            if got != want:
                bad += 1
    return CriterionResult(
        5, "symbol round trip", bad == 0, f"{total - bad}/{total} instances"
    )


def criterion_6_basis_invariance() -> CriterionResult:
    """Symbol survives invertible pencil-basis changes plus re-selection."""
    bad = 0
    total = 0
    for idx, sym in enumerate(CATALOG_ORDER):
        want = canonicalize(sym).exponent_structure()
        base = random_instance(sym, 777)
        rng = random.Random(31_000 + idx)
        for _ in range(100):
            while True:
                a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
                if a * d - b * c != 0:
                    break
            total += 1
            got = compute_symbol(change_basis(base, a, b, c, d)).exponent_structure()
            if got != want:
                bad += 1
    return CriterionResult(
        6, "pencil-basis invariance", bad == 0, f"{total - bad}/{total} basis changes"
    )


def criterion_7_block_divisors() -> CriterionResult:
    """Each normal block pair has the single elementary divisor (t-a)^e.

    The block of [e] at a is padded to full size with 1 x 1 blocks at
    distinct simple roots, the normal form of [e1...1]; the root a must
    then appear in the top invariant factor with exponent exactly e and
    nowhere else.
    """
    rng = random.Random(7)
    bad = []
    for e in range(1, 6):
        for _ in range(5):
            alpha = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
            pads: list[Fraction] = []
            while len(pads) < 5 - e:
                c = Fraction(rng.randint(-9, 9))
                if c != alpha and c not in pads:
                    pads.append(c)
            pencil = build_normal_form(f"[{e}{'1' * (5 - e)}]", [alpha, *pads])
            linear = [-alpha.numerator, alpha.denominator]
            exps = []
            for f in invariant_factors(pencil).factors:
                d, ct = f._c, 0
                while (d := _int_divide(d, linear)) is not None:
                    ct += 1
                exps.append(ct)
            if exps != [0, 0, 0, 0, e]:
                bad.append(f"e={e} alpha={alpha}: exponents {exps}")
    return CriterionResult(
        7, "block elementary divisors", not bad, "; ".join(bad) or "25/25 blocks"
    )


def _template_2111(a1, a2, a3, a4):
    z = Fraction(0)
    u = [
        [z, a1, z, z, z],
        [a1, Fraction(1), z, z, z],
        [z, z, a2, z, z],
        [z, z, z, a3, z],
        [z, z, z, z, a4],
    ]
    v = [
        [z, Fraction(1), z, z, z],
        [Fraction(1), z, z, z, z],
        [z, z, Fraction(1), z, z],
        [z, z, z, Fraction(1), z],
        [z, z, z, z, Fraction(1)],
    ]
    return as_matrix(u), as_matrix(v)


def _template_32(a1, a2):
    z = Fraction(0)
    one = Fraction(1)
    u = [
        [z, z, a1, z, z],
        [z, a1, one, z, z],
        [a1, one, z, z, z],
        [z, z, z, z, a2],
        [z, z, z, a2, one],
    ]
    v = [
        [z, z, one, z, z],
        [z, one, z, z, z],
        [one, z, z, z, z],
        [z, z, z, z, one],
        [z, z, z, one, z],
    ]
    return as_matrix(u), as_matrix(v)


def criterion_8_normal_forms() -> CriterionResult:
    """build_normal_form reproduces the tabulated matrix pairs bit-exactly."""
    from .forms import render_form

    bad = []
    for roots in ((2, 3, 4, 5), (Fraction(1, 2), -3, 7, Fraction(11, 3))):
        rs = [Fraction(r) for r in roots]
        got = build_normal_form("[2111]", rs)
        eu, ev = _template_2111(*rs)
        if (got.u, got.v) != (eu, ev):
            bad.append(f"[2111] roots {roots}")
    for roots in ((2, 3), (Fraction(-5, 2), 4)):
        rs = [Fraction(r) for r in roots]
        got = build_normal_form("[32]", rs)
        eu, ev = _template_32(*rs)
        if (got.u, got.v) != (eu, ev):
            bad.append(f"[32] roots {roots}")
    # expanded equations for the integer instances
    nf = build_normal_form("[2111]", [2, 3, 4, 5])
    if render_form(nf.u) != "4*X0*X1 + X1^2 + 3*X2^2 + 4*X3^2 + 5*X4^2":
        bad.append(f"[2111] U equation: {render_form(nf.u)}")
    if render_form(nf.v) != "2*X0*X1 + X2^2 + X3^2 + X4^2":
        bad.append(f"[2111] V equation: {render_form(nf.v)}")
    nf = build_normal_form("[32]", [2, 3])
    if render_form(nf.u) != "4*X0*X2 + 2*X1^2 + 2*X1*X2 + 6*X3*X4 + X4^2":
        bad.append(f"[32] U equation: {render_form(nf.u)}")
    if render_form(nf.v) != "2*X0*X2 + X1^2 + 2*X3*X4":
        bad.append(f"[32] V equation: {render_form(nf.v)}")
    return CriterionResult(
        8, "tabulated normal forms", not bad, "; ".join(bad) or "matrices and equations match"
    )


def _degenerate_pairs() -> dict[str, QuadricPencil]:
    """The four normal pairs of pencils with no nonsingular member."""
    z = Fraction(0)
    one = Fraction(1)

    def sym(entries):
        m = [[z] * 5 for _ in range(5)]
        for (i, j), c in entries.items():
            m[i][j] = Fraction(c)
            m[j][i] = Fraction(c)
        return as_matrix(m)

    a1, a2 = Fraction(5), Fraction(7)
    return {
        # 2*X0*X1 + 2*a1*X3*X4 + X4^2  /  2*X1*X2 + 2*X3*X4
        "[2;1]": QuadricPencil(
            sym({(0, 1): one, (3, 4): a1, (4, 4): one}),
            sym({(1, 2): one, (3, 4): one}),
        ),
        # 2*X0*X1 + a1*X3^2 + a2*X4^2  /  2*X1*X2 + X3^2 + X4^2
        "[11;1]": QuadricPencil(
            sym({(0, 1): one, (3, 3): a1, (4, 4): a2}),
            sym({(1, 2): one, (3, 3): one, (4, 4): one}),
        ),
        # the same with equal roots
        "[(11);1]": QuadricPencil(
            sym({(0, 1): one, (3, 3): a1, (4, 4): a1}),
            sym({(1, 2): one, (3, 3): one, (4, 4): one}),
        ),
        # 2*X0*X1 + 2*X2*X3  /  2*X1*X2 + 2*X3*X4
        "[;2]": QuadricPencil(
            sym({(0, 1): one, (2, 3): one}),
            sym({(1, 2): one, (3, 4): one}),
        ),
    }


def criterion_9_degenerate_pencils() -> CriterionResult:
    """All four singular normal pairs are rejected as not-Segre."""
    bad = []
    for name, pencil in _degenerate_pairs().items():
        try:
            select_nonsingular_member(pencil)
            bad.append(f"{name}: a nonsingular member was found")
            continue
        except NoSmoothMemberError:
            pass
        rep = degeneracy_report(pencil)
        if rep.verdict != "not a Segre quartic surface":
            bad.append(f"{name}: verdict {rep.verdict!r}")
        if name == "[11;1]" and rep.common_kernel_dim != 0:
            bad.append(f"{name}: expected trivial common kernel, got {rep.common_kernel_dim}")
    return CriterionResult(
        9, "degenerate pencil rejection", not bad, "; ".join(bad) or "4/4 pairs rejected"
    )


def criterion_10_numeric_agreement() -> CriterionResult:
    """Floating-point oracle agrees with the exact path; refusals fail."""
    bad = []
    for i in range(50):
        sym = CATALOG_ORDER[i % len(CATALOG_ORDER)]
        inst = random_instance(sym, 20_000 + i)
        exact = compute_symbol(inst)
        try:
            num = numeric_exponent_partitions(inst)
        except IllConditionedError as exc:
            bad.append(f"{sym} seed {20_000 + i}: refused ({exc})")
            continue
        if num != exact:
            bad.append(f"{sym} seed {20_000 + i}: {num.canonical()} != {exact}")
    return CriterionResult(
        10,
        "numeric oracle agreement",
        not bad,
        "; ".join(bad) or "50/50 instances agree",
    )


_EXPECTED_EDGES = {
    "[11111]": ["[2111]"],
    "[2111]": ["[311]", "[(11)111]"],
    "[(11)111]": ["[2(11)1]"],
    "[2(11)1]": ["[(11)(11)1]"],
    "[221]": ["[41]"],
    "[3(11)]": ["[(31)1]"],
    "[(21)2]": ["[(41)]"],
}
# class values along each edge; the only increase is 5 -> 6
_EXPECTED_DELTAS = {
    ("[11111]", "[2111]"): (12, 10),
    ("[2111]", "[311]"): (10, 9),
    ("[2111]", "[(11)111]"): (10, 8),
    ("[(11)111]", "[2(11)1]"): (8, 6),
    ("[2(11)1]", "[(11)(11)1]"): (6, 4),
    ("[221]", "[41]"): (8, 8),
    ("[3(11)]", "[(31)1]"): (5, 6),
    ("[(21)2]", "[(41)]"): (6, 5),
}


def criterion_11_transition_graph() -> CriterionResult:
    """Transition edges and their class deltas match the narrative."""
    bad = []
    for sym in CATALOG_ORDER:
        got = [t.render() for t in transitions(sym)]
        want = _EXPECTED_EDGES.get(sym, [])
        if got != want:
            bad.append(f"{sym}: edges {got} != {want}")
    for (src, dst), (c_src, c_dst) in _EXPECTED_DELTAS.items():
        if CATALOG[src].class_degree != c_src or CATALOG[dst].class_degree != c_dst:
            bad.append(f"{src}->{dst}: classes are not {c_src}->{c_dst}")
    return CriterionResult(
        11,
        "transition graph",
        not bad,
        "; ".join(bad) or f"{sum(len(v) for v in _EXPECTED_EDGES.values())} edges, deltas match",
    )


CRITERIA: tuple[Callable[[], CriterionResult], ...] = (
    criterion_1_catalog_classes,
    criterion_2_q_star_counts,
    criterion_3_smooth_quadric_identity,
    criterion_4_cone_identities,
    criterion_5_round_trip,
    criterion_6_basis_invariance,
    criterion_7_block_divisors,
    criterion_8_normal_forms,
    criterion_9_degenerate_pencils,
    criterion_10_numeric_agreement,
    criterion_11_transition_graph,
)


def run_all() -> list[CriterionResult]:
    return [check() for check in CRITERIA]
