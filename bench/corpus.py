"""Seeded inputs for the segre benchmark.

Everything the benchmark feeds the program is built here from the
workload seed: the same seed gives byte-identical inputs.  Expected
answers come from how each input was built (the generating symbol, the
kernel dimension of a degenerate normal pair), never from the program's
own output.  The program is used only to build normal forms
(``random_instance``); congruences, JSON text and quadratic-form text are
produced by this file.
"""

from __future__ import annotations

import json
import random
from contextlib import nullcontext
from dataclasses import dataclass

SIZE = 5

# The sixteen symbols of the quartic-surface catalog, in catalog order.
CATALOG_SYMBOLS = (
    "[11111]", "[2111]", "[(11)111]", "[311]", "[221]", "[2(11)1]",
    "[(21)11]", "[(11)(11)1]", "[41]", "[(31)1]", "[3(11)]", "[32]",
    "[(21)2]", "[(21)(11)]", "[5]", "[(41)]",
)

# The other eleven weight-5 symbols: each has a bracketed group with no 1
# in it (a cone) or with three or more entries (a reducible base locus).
OFF_CATALOG_SYMBOLS = (
    "[(111)11]", "[(22)1]", "[(211)1]", "[(1111)1]", "[(111)2]",
    "[(111)(11)]", "[(32)]", "[(311)]", "[(221)]", "[(2111)]", "[(11111)]",
)

# Pencils with no nonsingular member, as upper-triangle entries of U and V
# plus the dimension of ker U ∩ ker V.  The first four are the normal
# pairs with a trivial common kernel; the last two are cones over
# pencils in fewer variables, with a common kernel of dimension 1 and 2.
DEGENERATE_PAIRS = {
    # 2*X0*X1 + 10*X3*X4 + X4^2  /  2*X1*X2 + 2*X3*X4
    "[2;1]": ({(0, 1): 1, (3, 4): 5, (4, 4): 1}, {(1, 2): 1, (3, 4): 1}, 0),
    # 2*X0*X1 + 5*X3^2 + 7*X4^2  /  2*X1*X2 + X3^2 + X4^2
    "[11;1]": ({(0, 1): 1, (3, 3): 5, (4, 4): 7}, {(1, 2): 1, (3, 3): 1, (4, 4): 1}, 0),
    # the same with equal roots
    "[(11);1]": ({(0, 1): 1, (3, 3): 5, (4, 4): 5}, {(1, 2): 1, (3, 3): 1, (4, 4): 1}, 0),
    # 2*X0*X1 + 2*X2*X3  /  2*X1*X2 + 2*X3*X4
    "[;2]": ({(0, 1): 1, (2, 3): 1}, {(1, 2): 1, (3, 4): 1}, 0),
    # X0^2 + 2*X1^2 + 3*X2^2 + 4*X3^2  /  X0^2 + X1^2 + X2^2 + X3^2
    "cone1": (
        {(0, 0): 1, (1, 1): 2, (2, 2): 3, (3, 3): 4},
        {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1},
        1,
    ),
    # X0^2 + 2*X1^2 + 3*X2^2  /  X0^2 + X1^2 + X2^2
    "cone2": ({(0, 0): 1, (1, 1): 2, (2, 2): 3}, {(0, 0): 1, (1, 1): 1, (2, 2): 1}, 2),
}

STRUCTURED_ROUNDS = 8
DEGENERATE_PER_ROUND = 2
GENERIC_COUNT = 400
GENERIC_RANGE = 999
# Congruences per catalog symbol in each digit tier of ``bigcoeff``.  The
# cheap tiers are drawn several times so that the workload has over 100
# inputs (p90 then has ten beyond it) while the 1000-digit tier, which
# takes most of the time, is drawn once; the median input then falls
# inside the band of bracketed 10-digit inputs, not on the edge of a band.
BIGCOEFF_TIERS = {10: 4, 100: 2, 1000: 1}
CLI_ROUNDS = 7
CONGRUENCE_RANGE = 3

WORKLOADS = ("structured", "generic", "bigcoeff", "cli_cold")

IntMatrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Item:
    """One benchmark input and the answer it was built to have.

    ``expected`` is the exponent structure of the generating symbol, or
    None for generic pencils, whose symbol is checked against the numeric
    oracle instead.  ``kernel_dim`` is set for degenerate pencils only.
    ``cli_mode`` says how ``cli_cold`` hands the pencil to the program.
    """

    label: str
    u: IntMatrix
    v: IntMatrix
    json_text: str
    expected: tuple[tuple[int, ...], ...] | None = None
    kernel_dim: int | None = None
    cli_mode: str | None = None

    @property
    def degenerate(self) -> bool:
        return self.kernel_dim is not None

    @property
    def forms_text(self) -> str:
        return f"{form_text(self.u)} ; {form_text(self.v)}"

    @property
    def input_bits(self) -> int:
        return max(abs(c).bit_length() for m in (self.u, self.v) for row in m for c in row)


def structure(symbol: str) -> tuple[tuple[int, ...], ...]:
    """Exponent structure of ``[..]`` notation, independent of group order:
    the sorted multiset of each group's exponents sorted descending."""
    body = symbol.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"not a symbol: {symbol!r}")
    groups: list[tuple[int, ...]] = []
    run: list[int] | None = None
    for ch in body[1:-1]:
        if ch == "(":
            run = []
        elif ch == ")":
            groups.append(tuple(sorted(run, reverse=True)))
            run = None
        elif run is not None:
            run.append(int(ch))
        else:
            groups.append((int(ch),))
    return tuple(sorted(groups, reverse=True))


CATALOG_STRUCTURES = frozenset(structure(s) for s in CATALOG_SYMBOLS)


def form_text(m: IntMatrix) -> str:
    """The quadratic form X^T M X in the grammar ``segre analyze --poly`` reads."""
    terms: list[tuple[int, str]] = []
    for i in range(SIZE):
        if m[i][i]:
            terms.append((m[i][i], f"X{i}^2"))
        for j in range(i + 1, SIZE):
            if m[i][j]:
                terms.append((2 * m[i][j], f"X{i}*X{j}"))
    out = []
    for k, (c, mono) in enumerate(terms):
        sign = "-" if c < 0 else ("+" if k else "")
        out.append(f"{sign} {abs(c)}*{mono}".strip())
    return " ".join(out)


def pencil_json(u: IntMatrix, v: IntMatrix) -> str:
    return json.dumps({"U": [[str(c) for c in row] for row in u],
                       "V": [[str(c) for c in row] for row in v]})


def _det(m: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant."""
    a = [row[:] for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _congruence(rng: random.Random, draw) -> list[list[int]]:
    while True:
        a = [[draw(rng) for _ in range(SIZE)] for _ in range(SIZE)]
        if _det(a):
            return a


def _congruent(m: IntMatrix, a: list[list[int]]) -> IntMatrix:
    """A^T M A in integers."""
    ma = [[sum(m[i][k] * a[k][j] for k in range(SIZE)) for j in range(SIZE)] for i in range(SIZE)]
    return tuple(
        tuple(sum(a[k][i] * ma[k][j] for k in range(SIZE)) for j in range(SIZE))
        for i in range(SIZE)
    )


def _small(rng: random.Random) -> int:
    return rng.randint(-CONGRUENCE_RANGE, CONGRUENCE_RANGE)


def _digits(count: int):
    def draw(rng: random.Random) -> int:
        return rng.choice((-1, 1)) * rng.randrange(10 ** (count - 1), 10**count)
    return draw


def symmetric(entries: dict[tuple[int, int], int]) -> IntMatrix:
    m = [[0] * SIZE for _ in range(SIZE)]
    for (i, j), c in entries.items():
        m[i][j] = m[j][i] = c
    return tuple(tuple(row) for row in m)


def _as_ints(m) -> IntMatrix:
    if any(c.denominator != 1 for row in m for c in row):
        raise ValueError("random_instance returned a non-integer entry")
    return tuple(tuple(int(c) for c in row) for row in m)


def _symbol_item(symbol: str, u: IntMatrix, v: IntMatrix, label: str, cli_mode=None) -> Item:
    return Item(label, u, v, pencil_json(u, v), structure(symbol), cli_mode=cli_mode)


def _instance(segre, symbol: str, seed: int, span) -> tuple[IntMatrix, IntMatrix]:
    with span("symbol.random_instance"):
        p = segre.random_instance(symbol, seed)
    return _as_ints(p.u), _as_ints(p.v)


def _seed_draw(rng: random.Random) -> int:
    return rng.randrange(2**32)


def structured(segre, seed: int, rounds: int, span) -> list[Item]:
    """Every weight-5 symbol under random congruence, plus two degenerate
    pairs under random congruence (taking the pairs in turn), shuffled
    within each round.  With two degenerate pencils in 29 the median op is
    inside the dense band of bracketed catalog symbols, not at its edge,
    so the median latency does not jump between the cheap and the
    bracketed ops from run to run."""
    rng = random.Random(f"structured/{seed}")
    names = list(DEGENERATE_PAIRS)
    items: list[Item] = []
    for r in range(rounds):
        batch = []
        for sym in CATALOG_SYMBOLS + OFF_CATALOG_SYMBOLS:
            s = _seed_draw(rng)
            u, v = _instance(segre, sym, s, span)
            batch.append(_symbol_item(sym, u, v, f"{sym} seed {s}"))
        for k in range(DEGENERATE_PER_ROUND):
            name = names[(r * DEGENERATE_PER_ROUND + k) % len(names)]
            ue, ve, kernel = DEGENERATE_PAIRS[name]
            a = _congruence(rng, _small)
            u, v = _congruent(symmetric(ue), a), _congruent(symmetric(ve), a)
            batch.append(Item(f"degenerate {name} round {r}", u, v, pencil_json(u, v),
                              kernel_dim=kernel))
        rng.shuffle(batch)
        items += batch
    return items


def generic(seed: int, count: int) -> list[Item]:
    """Random symmetric integer pencils; their symbols are not known ahead."""
    rng = random.Random(f"generic/{seed}")

    def sym() -> IntMatrix:
        return symmetric({(i, j): rng.randint(-GENERIC_RANGE, GENERIC_RANGE)
                           for i in range(SIZE) for j in range(i, SIZE)})

    items = []
    for k in range(count):
        u, v = sym(), sym()
        items.append(Item(f"generic #{k}", u, v, pencil_json(u, v)))
    return items


def bigcoeff(segre, seed: int, symbols, span) -> list[Item]:
    """Each catalog symbol's normal form under integer congruences whose
    entries have half the target digit count, so the pencil's entries have
    about 10, 100 and 1000 digits."""
    rng = random.Random(f"bigcoeff/{seed}")
    items = []
    for sym in symbols:
        u0, v0 = _instance(segre, sym, _seed_draw(rng), span)
        for digits, count in BIGCOEFF_TIERS.items():
            for _ in range(count):
                a = _congruence(rng, _digits(digits // 2))
                u, v = _congruent(u0, a), _congruent(v0, a)
                items.append(_symbol_item(sym, u, v, f"{sym} {digits} digits"))
    return items


def cli_cold(segre, seed: int, rounds: int, symbols, span) -> list[Item]:
    """Catalog pencils for ``segre analyze``, alternating --poly and --file."""
    rng = random.Random(f"cli_cold/{seed}")
    items = []
    for r in range(rounds):
        for k, sym in enumerate(symbols):
            s = _seed_draw(rng)
            u, v = _instance(segre, sym, s, span)
            mode = "poly" if (seed + r + k) % 2 == 0 else "file"
            items.append(_symbol_item(sym, u, v, f"{sym} seed {s} --{mode}", cli_mode=mode))
    return items


def build(segre, workload: str, seed: int, tiny: bool = False, span=None) -> list[Item]:
    """The corpus of one workload.  ``tiny`` shrinks it for smoke tests;
    ``span(name)`` wraps each call into the program during generation."""
    span = span or (lambda name: nullcontext())
    if workload == "structured":
        return structured(segre, seed, 1 if tiny else STRUCTURED_ROUNDS, span)
    if workload == "generic":
        return generic(seed, 12 if tiny else GENERIC_COUNT)
    if workload == "bigcoeff":
        return bigcoeff(segre, seed, CATALOG_SYMBOLS[:2] if tiny else CATALOG_SYMBOLS, span)
    if workload == "cli_cold":
        return cli_cold(segre, seed, 1 if tiny else CLI_ROUNDS,
                        CATALOG_SYMBOLS[:4] if tiny else CATALOG_SYMBOLS, span)
    raise ValueError(f"unknown workload {workload!r}")
