"""Seeded input generators for the three benchmark workloads.

This module imports nothing from freeproj: it produces plain data (text,
integer lists and tuples), and the workload code turns that data into
library objects through public constructors.  Keeping the generator here,
rather than in ``freeproj.randgen``, pins the load: a later change to the
library cannot silently change what is measured.

Inputs come in two stages.  A base stream, drawn once from a fixed seed,
fixes the shape and the random content of every op; each workload repeats a
block of op kinds and sizes, so the mix is the same in every run.  The run's
``--seed`` then relabels each base op by a symmetry that keeps its answer
and its cost: modules get their relation rows scaled by units and
reordered; limit-algebra matrices are conjugated by a permutation of the
letters acting on every tensor factor and negated at random; Leavitt
elements get their letters permuted and are scaled by units.  Every seed
gives other inputs (other text, other matrices, other words), but the work
stays the same, so the spread between seeds measures the program and the
machine rather than the luck of one draw.  ``stream(workload, seed)``
yields the relabelled ops in order; a salt gives a disjoint base stream, used
for warm-up.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

COEFFS = (1, -1, 2, -2)
GFP = 10007

# Parameter ranges, reported with every run.
PARAMS = {
    "modules": {
        "field": "QQ",
        "profile_d2": "1-3 generators, shifts 0-1, 1-6 relation rows of degree <=4, coefficients +-1 +-2",
        "profile_d3": "1-2 generators, shifts 0-1, 1-6 relation rows of degree <=2, coefficients +-1 +-2",
        "iso": "as profile_d2, plus k(-j) with j in 0..2",
        "section": "d=2 map from 2-3 generators (shifts 0-2) to [0] or [0,1], coefficients -1..1",
        "block": "p2 p2 p3 p2 s2 p2 iso p2 p3 p2 (p=profile+k0+torsion, s=section)",
    },
    "limit_algebra": {
        "entries": "-2..2",
        "regular": "(d,level) = (3,3) once, (2,4) 3 times, (3,2) and (2,3) twice per block; each matrix over QQ and GF(%d)" % GFP,
        "hom": "d=3 level 1-2, d=2 level 1-3, checked one level up",
        "simple": "level 1-2",
        "k0": "diagonal 0/1 idempotent conjugated by n elementary integer matrices, d=3 level 1-3, d=2 level 2-4",
        "block": "20 ops: 8 regular, 5 hom, 3 simple, 4 k0",
    },
    "leavitt": {
        "field": "QQ",
        "elements": "1-8 terms, words of length <=5 (d=2) or <=4 (d=3), coefficients +-1 +-2",
        "junctions": "factors are biased so that 3 in 4 junctions cancel",
        "flat": "r <=4 (d=2) or r <=3 (d=3)",
        "matrix": "degree-zero elements at level <=3 (d=2) or <=2 (d=3)",
        "block": "assoc flat matrix eval, d alternating 2 3",
    },
}

REASONS = {
    "modules": (
        "stable profiles, classes, torsion, sections and isomorphism of random "
        "presented modules: parsing, submodules, fpmod, qgr and sparse rank-only linalg"
    ),
    "limit_algebra": (
        "dense elimination with a transform over growing Fractions (vN witnesses over "
        "QQ and GF(p)), embeddings and products in the limit matrix algebra"
    ),
    "leavitt": (
        "many small ops bound by dict rewriting in leavitt and freealg with no "
        "elimination: the bypass load for linalg, fpmod and submodules changes"
    ),
}

WORKLOADS = tuple(REASONS)


BASE_SEED = 1104  # the fixed seed of the base streams


def _word_text(word) -> str:
    return " ".join(f"x{i}" for i in word)


def _poly_text(terms) -> str:
    """Text in the polynomial grammar for [(coeff, word)], or "0"."""
    out = []
    for c, w in terms:
        sign = "-" if c < 0 else "+"
        if not w:
            out.append(f"{sign} {abs(c)}")
        else:
            out.append(f"{sign} {'' if abs(c) == 1 else f'{abs(c)} '}{_word_text(w)}")
    if not out:
        return "0"
    text = " ".join(out)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _random_poly(rng, d, length, span=COEFFS, max_terms=3):
    return [
        (rng.choice(span), tuple(rng.randrange(d) for _ in range(length)))
        for _ in range(rng.randint(1, max_terms))
    ]


def _word(rng, d, lo, hi):
    return tuple(rng.randrange(d) for _ in range(rng.randint(lo, hi)))


def _all_words(d, r):
    return list(itertools.product(range(d), repeat=r))


# ---------------------------------------------------------------------------
# modules: base ops hold relation rows as lists of cells, a cell being a
# list of (coeff, word) terms ([] for zero)


def _presentation(rng, d, max_gens, max_deg):
    shifts = sorted(rng.randint(0, 1) for _ in range(rng.randint(1, max_gens)))
    rows = []
    while not rows:
        for _ in range(rng.randint(1, 6)):
            deg = rng.randint(1, max_deg)
            row = [
                [] if deg < b or rng.random() < 0.3 else _random_poly(rng, d, deg - b)
                for b in shifts
            ]
            if any(row):
                rows.append(row)
    return shifts, rows


def _module_map(rng):
    d = 2
    src = sorted(rng.randint(0, 2) for _ in range(rng.randint(2, 3)))
    tgt = [0] if rng.random() < 0.7 else [0, 1]
    while True:
        rows = [
            [_random_poly(rng, d, a - b, (-1, 0, 1)) if a >= b else [] for b in tgt]
            for a in src
        ]
        if any(c for row in rows for cell in row for c, _ in cell):
            return {"kind": "section", "d": d, "src": src, "tgt": tgt, "rows": rows}


# One block of the modules workload: p2/p3 = profile at d=2/3, s2 = section.
_MODULES_BLOCK = ("p2", "p2", "p3", "p2", "s2", "p2", "iso", "p2", "p3", "p2")


def _modules_op(rng, slot):
    kind = _MODULES_BLOCK[slot % len(_MODULES_BLOCK)]
    if kind == "s2":
        return _module_map(rng)
    d = 3 if kind == "p3" else 2
    shifts, rows = _presentation(rng, d, *((2, 2) if d == 3 else (3, 4)))
    op = {"kind": "iso" if kind == "iso" else "profile", "d": d, "shifts": shifts, "rows": rows}
    if kind == "iso":
        op["j"] = rng.randint(0, 2)
    return op


def _modules_relabel(rng, op):
    """Scale each relation row (each map row) by a unit and shuffle the rows.

    Letters and generators keep their names here: the weak algorithm works
    in the length-lex order x0 < x1 < ..., so renaming letters would change
    the leading words and with them the cost of the op.  Row scaling and row
    order leave the fully reduced relation basis, and everything computed
    from it, unchanged.
    """
    rows = []
    for row in op["rows"]:
        unit = rng.choice(COEFFS)
        rows.append([[(unit * c, w) for c, w in cell if c] for cell in row])
    if op["kind"] == "section":
        return {"kind": "section", "d": op["d"], "src": op["src"], "tgt": op["tgt"],
                "rows": [[_poly_text(cell) for cell in row] for row in rows]}
    rng.shuffle(rows)
    gens = ", ".join(str(b) for b in op["shifts"])
    text = f"field: QQ\nd: {op['d']}\ngens: [{gens}]\nrels:\n" + "".join(
        ", ".join(_poly_text(cell) for cell in row) + "\n" for row in rows)
    out = {"kind": op["kind"], "d": op["d"], "pres": text}
    if "j" in op:
        out["j"] = op["j"]
    return out


# ---------------------------------------------------------------------------
# limit algebra


def _matrix(rng, d, level):
    n = d**level
    return [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]


def _nonzero_matrix(rng, d, level):
    while True:
        m = _matrix(rng, d, level)
        if any(v for row in m for v in row):
            return m


# One block of the limit-algebra workload; regular ops carry their (d, level).
# The costliest witness, (3, 3), is 1 op in 20 and (2, 4) 3 in 20, so the
# 90th percentile falls inside the (2, 4) class rather than on a class edge.
_LIMIT_BLOCK = (
    ("regular", (3, 3)), ("hom", None), ("simple", None), ("k0", None),
    ("regular", (2, 4)), ("hom", None), ("regular", (3, 2)), ("k0", None),
    ("regular", (2, 4)), ("simple", None), ("hom", None), ("regular", (2, 3)),
    ("k0", None), ("regular", (2, 4)), ("hom", None), ("simple", None),
    ("regular", (3, 2)), ("k0", None), ("hom", None), ("regular", (2, 3)),
)


def _limit_op(rng, slot):
    kind, shape = _LIMIT_BLOCK[slot % len(_LIMIT_BLOCK)]
    if kind == "regular":
        d, level = shape
        return {"kind": "regular", "d": d, "level": level, "a": _matrix(rng, d, level)}
    d = rng.choice((2, 3))
    if kind == "hom":
        level = rng.randint(1, 3 if d == 2 else 2)
        return {"kind": "hom", "d": d, "level": level,
                "a": _matrix(rng, d, level), "b": _matrix(rng, d, level)}
    if kind == "simple":
        level = rng.randint(1, 2)
        return {"kind": "simple", "d": d, "level": level, "a": _nonzero_matrix(rng, d, level)}
    level = rng.randint(2, 4) if d == 2 else rng.randint(1, 3)
    return {"kind": "k0", "d": d, "level": level, **_idempotent(rng, d**level)}


def _idempotent(rng, n):
    """A diagonal 0/1 idempotent conjugated by a product of elementary integer
    matrices, with its rank: an idempotent in another basis."""
    diag = [rng.randint(0, 1) for _ in range(n)]
    if not any(diag):
        diag[rng.randrange(n)] = 1
    e = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        # e -> E e E^-1 with E = 1 + c E_ij: add c * row j to row i,
        # then subtract c * column i from column j
        e[i] = [a + c * b for a, b in zip(e[i], e[j])]
        for row in e:
            row[j] -= c * row[i]
    return {"e": e, "rank": sum(diag)}


def _limit_relabel(rng, op):
    """Conjugate by a letter permutation acting on every tensor factor, and
    negate matrices at random: an automorphism of the limit algebra."""
    d, level = op["d"], op["level"]
    sigma = list(range(d))
    rng.shuffle(sigma)
    perm = [0] * d**level
    for k, w in enumerate(_all_words(d, level)):
        r = 0
        for i in w:
            r = r * d + sigma[i]
        perm[k] = r
    out = {"kind": op["kind"], "d": d, "level": level}
    for key in ("a", "b", "e"):
        if key in op:
            sign = 1 if key == "e" else rng.choice((1, -1))  # -e is no idempotent
            m = [[0] * len(perm) for _ in perm]
            for i, row in enumerate(op[key]):
                for j, v in enumerate(row):
                    m[perm[i]][perm[j]] = sign * v
            out[key] = m
    if "rank" in op:
        out["rank"] = op["rank"]
    return out


# ---------------------------------------------------------------------------
# Leavitt: elements are lists of terms [coeff, w, v] meaning coeff * w* v


def _element(rng, d, wmax, partner=None, max_terms=8):
    """A random element.  With a partner (the left factor), three in four
    terms pick their starred word to cancel against the plain word of a
    partner term, so the product does not vanish at the junction."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        c = rng.choice(COEFFS)
        if partner and rng.random() < 0.75:
            _, _, pv = rng.choice(partner)
            if rng.random() < 0.5:
                w = pv[len(pv) - rng.randint(0, len(pv)):]
            else:
                w = _word(rng, d, 0, wmax - len(pv)) + pv
        else:
            w = _word(rng, d, 0, wmax)
        terms.append((c, w, _word(rng, d, 0, wmax)))
    return terms


def _degree_zero(rng, d, r, max_terms=8):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        n = rng.randint(0, r)
        terms.append((rng.choice(COEFFS), _word(rng, d, n, n), _word(rng, d, n, n)))
    return terms


def _leavitt_text(terms) -> str:
    out = []
    for c, w, v in terms:
        gens = " ".join([f"x{i}*" for i in reversed(w)] + [f"x{i}" for i in v])
        sign = "-" if c < 0 else "+"
        if not gens:
            out.append(f"{sign} {abs(c)}")
        else:
            out.append(f"{sign} {'' if abs(c) == 1 else f'{abs(c)} '}{gens}")
    text = " ".join(out)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _leavitt_op(rng, slot):
    kind = ("assoc", "flat", "matrix", "eval")[slot % 4]
    d = 2 if (slot // 4) % 2 == 0 else 3
    wmax = 5 if d == 2 else 4
    if kind == "assoc":
        a = _element(rng, d, wmax)
        b = _element(rng, d, wmax, a)
        c = _element(rng, d, wmax, b)
        return {"kind": "assoc", "d": d, "a": a, "b": b, "c": c}
    if kind == "flat":
        r = rng.randint(1, 4 if d == 2 else 3)
        # w* times the plain polynomial sum c u is the element sum c w* u
        terms = []
        for w in _all_words(d, r):
            if rng.random() < 0.5:
                terms.extend((c, w, u) for c, u in _random_poly(rng, d, rng.randint(0, 2), COEFFS, 2))
        return {"kind": "flat", "d": d, "r": r, "a": terms}
    if kind == "matrix":
        r = rng.randint(1, 3 if d == 2 else 2)
        return {"kind": "matrix", "d": d, "a": _degree_zero(rng, d, r), "b": _degree_zero(rng, d, r)}
    return {"kind": "eval", "d": d, "a": _element(rng, d, wmax)}


def _leavitt_relabel(rng, op):
    """Permute the letters (an automorphism of the Leavitt algebra) and scale
    each element by a unit."""
    d = op["d"]
    sigma = list(range(d))
    rng.shuffle(sigma)
    out = dict(op)
    for key in ("a", "b", "c"):
        if key in op:
            unit = rng.choice(COEFFS)
            out[key] = [
                (unit * c, tuple(sigma[i] for i in w), tuple(sigma[i] for i in v))
                for c, w, v in op[key]
            ]
    if op["kind"] == "eval":
        out["text"] = _leavitt_text(out.pop("a"))
    return out


# ---------------------------------------------------------------------------

_MAKERS = {"modules": _modules_op, "limit_algebra": _limit_op, "leavitt": _leavitt_op}
_RELABEL = {"modules": _modules_relabel, "limit_algebra": _limit_relabel,
            "leavitt": _leavitt_relabel}


def base_stream(workload: str, salt: str = ""):
    """The fixed base ops of a workload, in order."""
    rng = random.Random(f"freeproj-bench:{workload}:base:{salt}:{BASE_SEED}")
    make = _MAKERS[workload]
    for slot in itertools.count():
        yield make(rng, slot)


def stream(workload: str, seed, salt: str = "", rep: int = 0):
    """The ops of a run: the base ops relabelled by the seed.  Each repetition
    of the base ops gets a relabelling of its own."""
    rng = random.Random(f"freeproj-bench:{workload}:relabel:{salt}:{seed}:{rep}")
    relabel = _RELABEL[workload]
    for op in base_stream(workload, salt):
        yield relabel(rng, op)


def pool(workload: str, seed, n: int, salt: str = "", rep: int = 0) -> list:
    """The first n ops of stream(workload, seed, salt, rep)."""
    return list(itertools.islice(stream(workload, seed, salt, rep), n))


def digest(ops) -> str:
    """sha256 of the canonical JSON text of a list of ops."""
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
