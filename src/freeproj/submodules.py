"""Free bases of graded left submodules: the weak algorithm.

Over the free algebra, one-sided leading-term interference is exactly
left-multiple overlap: u*w = v*w' forces one of w, w' to be a suffix of the
other (in the same coordinate).  So interreducing a homogeneous generating
set until no leading term is a word-times another leading term yields a set
whose left multiples have pairwise distinct leading monomials.  Such a set
is a free basis of the submodule it generates, and head reduction against it
is a complete membership test.

Elements are inserted in degree order and fully reduced, so at each
coordinate the leading words are suffix-free: none is a suffix of a later,
at least as long one.  So at most one is a suffix of a word w, found by
looking up in the coordinate's {leading word: index} dict the suffixes of w
whose lengths are lengths of leads there, one probe per such length
(R/R_{>=m} has one).  `weak_basis` builds the dict and the lengths, and
`FreeBasis` keeps both.  One tail interreduction pass suffices: whether a
monomial is reducible depends only on the leading words, and
interreduction never changes them (reduction only adds smaller terms), so
an element once reduced stays reduced.  A tail monomial, reduced against
every earlier lead, can end only in a later lead of its element's degree,
of its own length: the pass reduces only a tail that holds a lead.

A twist moves every degree alike and the summands of a sum share no
coordinate, so `weak_basis` takes their relations in the same order and
reduces them alike: `FpModule.shift` and `direct_sum` derive their bases
from their operands' (`FreeBasis._shifted`, `_summed`).

Kernels come from cofactors: if the generators g satisfy g = Q*b and
b = P*g for a free basis b, then every kernel row r satisfies r*Q = 0,
hence r = r*(I - Q*P), so the rows of I - Q*P generate the whole kernel.
Only `kernel` reads them, so only the basis it builds of the images records
each element as a left combination of the input generators (P, in
`FreeBasis.from_generators`); an input generator's combination over the
basis (Q) is read from the reductions of `_full_reduce` on demand.  Every
other basis (relation bases, the kernel's own basis of its rows, the
checks of `verify`) is built by the same loop without them.

Reduction is fraction-free (Bareiss, Math. Comp. 22, 1968, as in
`linalg.row_reduce`), in one loop for QQ and GF(p), `_full_reduce`: the
work is integer numerators over one denominator W, and a monic basis
element is B / db with B primitive and integral.  Reducing a numerator c
scales everything by s = db / gcd(c, db) when s != 1, subtracts
(c * s / db) * u * B and divides out the common gcd; an output value is one
exact division by W.  Nonzero integer scales keep every zero pattern, so
monomials, key order and values are field arithmetic's, integral ones as
ints.  Over GF(p) W = db = 1.  A basis builds its elements on first read.

`FpModule.mod_torsion` adds the torsion generators to the relations and
rebuilds their basis here, but most modules have none to add.  For t0 > 0
a module M has no torsion exactly when m -> (x_a * m)_a is injective from
M_j to M_{j+1}^d for every j below its stable index i0, a rank check on
its letter matrices (`FpModule.torsion`); then `mod_torsion` returns M
itself and no basis is rebuilt.
"""

from __future__ import annotations

from bisect import insort
from math import gcd
from operator import add, floordiv, mul

from .freealg import (
    FreeModuleElement,
    GradedFreeModule,
    ModuleMap,
    NcPoly,
    term_key,
)
from .linalg import _add_products, _add_terms, _lift, _values


class FreeBasis:
    """A free basis of a graded left submodule, with conversion data.

    elements: monic, fully interreduced, pairwise left-multiple-free leading
    terms.  On the basis `kernel` builds of its images, from_generators[j]
    expresses elements[j] over the input generators, as a sparse row
    {index: NcPoly} with coefficients acting on the left; on every other
    basis it is None.  Input generator i is expressed over the basis on
    demand, by reducing it.  _by_coord is `weak_basis`'s lead index {alpha:
    {leading word at alpha: index}} and _lengths {alpha: the lengths of
    those words}; _ints holds the elements as `_entry` makes them.
    """

    __slots__ = ("ambient", "_elements", "from_generators", "_by_coord", "_lengths", "_degrees", "_ints")

    def __init__(self, ambient, elements, from_generators, by_coord, lengths, degrees, ints):
        self.ambient = ambient
        self._elements = None if elements is None else tuple(elements)
        self.from_generators = None if from_generators is None else tuple(from_generators)
        self._by_coord = by_coord
        self._lengths = lengths
        self._degrees = tuple(degrees)
        self._ints = ints

    @property
    def elements(self) -> tuple:
        if self._elements is None:  # each lead first, as the normal forms order it
            leads = {i: (alpha, w) for alpha, words in self._by_coord.items() for w, i in words.items()}
            self._elements = tuple(FreeModuleElement(self.ambient, {leads[i]: 1, **_values(dict(tail), db)})
                                   for i, (db, tail) in enumerate(self._ints))
        return self._elements

    @property
    def rank(self) -> int:
        return len(self._ints)

    def degrees(self) -> tuple:
        return self._degrees

    def submodule_dim(self, j: int) -> int:
        """Dimension of the degree-j piece of the generated submodule.

        Exact because the basis is free: each basis element of degree a
        contributes the d^(j-a) words that can multiply it.
        """
        d = self.ambient.algebra.d
        return sum(d ** (j - a) for a in self.degrees() if a <= j)

    def reduce(self, elem: FreeModuleElement) -> FreeModuleElement:
        F = elem.module.algebra.field
        return FreeModuleElement(elem.module, _values(*_full_reduce(F, *_lift(F, elem.terms), self._ints,
                                                                    self._by_coord, self._lengths)))

    def _shifted(self, ambient, m: int) -> "FreeBasis":
        """This basis in ambient, its ambient shifted by m (module docstring),
        sharing the containers, which no basis changes once built."""
        return FreeBasis(ambient, None, None, self._by_coord, self._lengths, [a - m for a in self._degrees], self._ints)

    def _summed(self, other: "FreeBasis", ambient) -> "FreeBasis":
        """The basis of both bases' relations in ambient, the direct sum of
        their ambients (module docstring): the merge by degree, this one's
        first, other's coordinates moved past this one's."""
        off, by_coord, lengths, ints = self.ambient.rank, {}, {}, []
        merged = sorted((a, side, i) for side, B in enumerate((self, other)) for i, a in enumerate(B._degrees))
        leads = [{i: (alpha + k, w) for alpha, words in B._by_coord.items() for w, i in words.items()}
                 for B, k in ((self, 0), (other, off))]
        for _, side, i in merged:
            alpha, w = leads[side][i]
            by_coord.setdefault(alpha, {})[w] = len(ints)
            lengths.setdefault(alpha, set()).add(len(w))
            db, tail = (self, other)[side]._ints[i]
            ints.append((db, tuple(((beta + off, v), c) for (beta, v), c in tail)) if side else (db, tail))
        return FreeBasis(ambient, None, None, by_coord, lengths, [a for a, _, _ in merged], ints)

    def __repr__(self):
        return f"FreeBasis(rank={self.rank}, degrees={self.degrees()})"


def _entry(F, nums: dict) -> tuple:
    """(db, tail): nums divided by its value at its first monomial, the lead,
    as B / db with B primitive and integral, db > 0, over QQ, and db = 1 over
    GF(p); tail is B off the lead, in nums's order."""
    terms = iter(nums.items())
    L = next(terms)[1]
    if L == 1:
        return 1, tuple(terms)
    if p := F.characteristic:
        inv = pow(L, -1, p)
        return 1, tuple((m, v * inv % p) for m, v in terms)
    g = gcd(*nums.values()) if L > 0 else -gcd(*nums.values())
    return L // g, tuple(terms) if g == 1 else tuple((m, v // g) for m, v in terms)


def _rescale(parts, op, k: int):
    """Each value v of the dicts parts becomes op(v, k), in place."""
    for part in parts:
        for m, v in part.items():
            part[m] = op(v, k)


def _full_reduce(F, work: dict, W: int, ints, by_coord, lengths, uses=None):
    """(nf, W'): the normal form of work / W against the basis with
    `FreeBasis._ints` ints and lead index by_coord, lengths, as numerators
    nf over W' (module docstring).
    Terms are processed in decreasing order, so nf is the canonical fully
    reduced form, in that order: the work is sorted once, and a monomial a
    reduction adds, below the popped one (the order is stable under left
    multiplication), inserted; an entry that has left work is skipped.
    When uses is a dict it receives the cofactors {basis index: {word:
    value}}, with work / W = nf / W' + sum uses[i] * basis[i].  work is
    consumed, and may be returned as nf."""
    if not by_coord:  # nothing reduces: nf is the sorted work
        return (work if len(work) < 2 else {m: work[m] for m in sorted(work, key=term_key, reverse=True)}), W
    order = sorted(work, key=term_key) if len(work) > 1 else list(work)
    p = F.characteristic
    nf: dict = {}
    while order:
        mon = order.pop()
        c = work.pop(mon, 0)
        if not c:
            continue
        alpha, w = mon
        # the reducer: at most one lead at alpha is a suffix of w (module docstring)
        leads, idx = by_coord.get(alpha), None
        if leads:
            n = len(w)
            for k in lengths[alpha]:
                if k <= n and (idx := leads.get(w[n - k:])) is not None:
                    break
        if idx is None:
            nf[mon] = c
            continue
        u = w[:n - k]
        db, tail = ints[idx]
        g = gcd(c, db)
        q, s = c // g, db // g
        if s != 1:
            W, c = W * s, c * s
            _rescale((work, nf, *(uses or {}).values()), mul, s)
        # work -= q * u * B, except at B's lead, which cancels the popped mon
        for (beta, wb), v in tail:
            m = (beta, u + wb)
            if m not in work:
                insort(order, m, key=term_key)
            t = work.get(m, 0) - q * v
            if t := t % p if p else t:
                work[m] = t
            else:
                del work[m]
        if uses is not None:
            _add_terms(F, uses.setdefault(idx, {}), [(u, c)])
        if s != 1:
            parts = (work, nf, *(uses or {}).values())
            g = gcd(W, *(v for part in parts for v in part.values()))
            if g != 1:
                W //= g
                _rescale(parts, floordiv, g)
    if uses and W != 1:
        for i, q in uses.items():
            uses[i] = _values(q, W)
    return nf, W


def _combine_cofactors(F, base_row: dict, uses: dict, rows: list) -> dict:
    """base_row - sum uses[j] * rows[j], on the plain cofactor rows
    {index: {word: coef}} used inside this module; `NcPoly` rows appear only
    in `FreeBasis.from_generators`."""
    out = {i: dict(t) for i, t in base_row.items()}
    for j, q in uses.items():
        minus_q = {u: F.neg(c) for u, c in q.items()}
        for i, t in rows[j].items():
            acc = out.setdefault(i, {})
            _add_products(F, acc, minus_q, t, add)
            if not acc:
                del out[i]
    return out


def weak_basis(generators, ambient: GradedFreeModule | None = None, *, _cofactors=False) -> FreeBasis:
    """Free basis of the left submodule generated by homogeneous elements,
    taken by degree, then input order.  With _cofactors, which only `kernel`
    sets, it also records each element over them in `from_generators`."""
    generators = list(generators)
    if ambient is None:
        if not generators:
            raise ValueError("ambient module required for an empty generating set")
        ambient = generators[0].module
    A, shifts = ambient.algebra, ambient.shifts
    F = A.field
    degree: dict = {}  # {index: degree} of the nonzero generators, read once each
    for i, g in enumerate(generators):
        if g.module is not ambient and g.module != ambient:
            raise ValueError("generators live in different modules")
        if g.terms:
            alpha, w = next(iter(g.terms))
            a = degree[i] = len(w) + shifts[alpha]
            for beta, v in g.terms:
                if len(v) + shifts[beta] != a:
                    raise ValueError("generators must be homogeneous")

    degrees: list = []
    leads: list = []
    ints: list = []  # the `FreeBasis._ints` of the basis
    cof_rows: list = []  # with _cofactors, row i: basis element i over the input generators
    by_coord: dict = {}  # the lead index FreeBasis keeps
    lengths: dict = {}  # {alpha: the lengths of the leads at alpha}
    for i in sorted(degree, key=degree.get):  # stable: by degree, then index
        uses = {} if _cofactors else None
        nf, W = _full_reduce(F, *_lift(F, generators[i].terms), ints, by_coord, lengths, uses)
        if not nf:
            continue
        lead = next(iter(nf))  # nf is in decreasing order, its lead first
        if _cofactors:
            row = _combine_cofactors(F, {i: {(): F.one}}, uses, cof_rows)
            if nf[lead] != W:
                inv = F.div(W, nf[lead])  # 1 / the lead value
                row = {k: {u: F.mul(inv, c) for u, c in t.items()} for k, t in row.items()}
            cof_rows.append(row)
        by_coord.setdefault(lead[0], {})[lead[1]] = len(ints)
        lengths.setdefault(lead[0], set()).add(len(lead[1]))
        leads.append(lead)
        ints.append(_entry(F, nf))
        degrees.append(degree[i])

    # one tail interreduction pass, of the tails that hold a lead (module docstring)
    lead_set = set(leads)
    for idx, (db, tail) in enumerate(ints):
        for m, _ in tail:
            if m in lead_set:
                break
        else:
            continue
        uses = {} if _cofactors else None
        nf, W = _full_reduce(F, dict(tail), db, ints, by_coord, lengths, uses)
        ints[idx] = _entry(F, {leads[idx]: W, **nf})
        if _cofactors:
            cof_rows[idx] = _combine_cofactors(F, cof_rows[idx], uses, cof_rows)
    # `_combine_cofactors` may leave a Fraction(k, 1), which coerce makes k
    from_generators = [{i: NcPoly(A, {u: F.coerce(c) for u, c in t.items()}) for i, t in row.items()}
                       for row in cof_rows] if _cofactors else None
    return FreeBasis(ambient, None, from_generators, by_coord, lengths, degrees, ints)


def kernel(phi: ModuleMap) -> FreeBasis:
    """Free basis of the kernel of a degree-preserving map of free modules:
    the rows r of the source with sum r_i * images_i = 0, as the rows of
    I - Q*P (module docstring)."""
    images = phi.row_elements()
    F = phi.source.algebra.field
    basis = weak_basis(images, ambient=phi.target, _cofactors=True)  # zero images are skipped
    P = [{i: p.terms for i, p in row.items()} for row in basis.from_generators]
    rows = []
    for i, g in enumerate(images):
        Q: dict = {}
        _full_reduce(F, *_lift(F, g.terms), basis._ints, basis._by_coord, basis._lengths, Q)
        acc = _combine_cofactors(F, {i: {(): F.one}}, Q, P)
        rows.append(FreeModuleElement(phi.source, {(l, w): c for l, t in acc.items() for w, c in t.items()}))
    return weak_basis([r for r in rows if not r.is_zero()], ambient=phi.source)
