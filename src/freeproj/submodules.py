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
looking up the |w| + 1 suffixes of w in the coordinate's {leading word:
index} dict, which `weak_basis` builds and `FreeBasis` keeps.  One tail
interreduction pass suffices: whether a monomial is reducible depends only
on the leading words, and interreduction never changes them (reduction
only adds smaller terms), so an element once reduced stays reduced.

Every basis element is recorded as a left combination of the input
generators; an input generator's combination over the basis is computed on
demand by reducing it.  Kernels fall out of the two: if the generators g
satisfy g = Q*b and b = P*g for a free basis b, then every kernel row r
satisfies r*Q = 0, hence r = r*(I - Q*P), so the rows of I - Q*P generate
the whole kernel.
"""

from __future__ import annotations

from operator import add

from .freealg import (
    FreeModuleElement,
    GradedFreeModule,
    ModuleMap,
    NcPoly,
    term_key,
)
from .linalg import _add_products, _add_terms, _row_axpy


class FreeBasis:
    """A free basis of a graded left submodule, with conversion data.

    elements: monic, fully interreduced, pairwise left-multiple-free leading
    terms.  from_generators[j] expresses elements[j] over the input
    generators, as a sparse row {index: NcPoly} with coefficients acting on
    the left.  Input generator i is expressed over the basis on demand, by
    reducing it.  _by_coord is `weak_basis`'s lead index {alpha: {leading
    word at alpha: index}}.
    """

    __slots__ = ("ambient", "elements", "from_generators", "_by_coord", "_degrees")

    def __init__(self, ambient, elements, from_generators, by_coord):
        self.ambient = ambient
        self.elements = tuple(elements)
        self.from_generators = tuple(from_generators)
        self._by_coord = by_coord
        self._degrees = tuple(b.degree() for b in self.elements)

    @property
    def rank(self) -> int:
        return len(self.elements)

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
        return _full_reduce(elem, self.elements, self._by_coord)[0]

    def __repr__(self):
        return f"FreeBasis(rank={self.rank}, degrees={self.degrees()})"


def _find_reducer(alpha, w, by_coord):
    """(index, prefix) of the basis element whose leading word is a suffix
    of w = prefix + leading word at alpha, or (None, None); the leads at
    alpha are suffix-free, so at most one suffix of w is found."""
    leads = by_coord.get(alpha)
    for k in range(len(w) + 1 if leads else 0):
        if (idx := leads.get(w[k:])) is not None:
            return idx, w[:k]
    return None, None


def _full_reduce(elem, basis, by_coord):
    """Reduce every monomial of elem against the monic basis.

    Returns (normal form, uses) with uses a dict {basis index: {word: coef}}
    such that elem = nf + sum uses[i]*basis[i].  Terms are processed in
    decreasing order, so the result is the canonical fully reduced form.
    """
    F = elem.module.algebra.field
    work = dict(elem.terms)
    nf: dict = {}
    uses: dict = {}
    while work:
        mon = max(work, key=term_key)
        coef = work.pop(mon)
        alpha, w = mon
        idx, u = _find_reducer(alpha, w, by_coord)
        if idx is None:
            nf[mon] = coef
            continue
        # work -= coef * u * b, except at b's lead: b is monic, so the lead
        # cancels mon, which is already popped
        lead = (alpha, w[len(u):])
        _row_axpy(F, work, coef, {
            (beta, u + wb): cb for (beta, wb), cb in basis[idx].terms.items() if (beta, wb) != lead
        })
        _add_terms(F, uses.setdefault(idx, {}), [(u, coef)])
    return FreeModuleElement(elem.module, nf), uses


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


def weak_basis(generators, ambient: GradedFreeModule | None = None) -> FreeBasis:
    """Free basis of the left submodule generated by homogeneous elements."""
    generators = list(generators)
    if ambient is None:
        if not generators:
            raise ValueError("ambient module required for an empty generating set")
        ambient = generators[0].module
    A = ambient.algebra
    F = A.field
    for g in generators:
        if g.module != ambient:
            raise ValueError("generators live in different modules")
        if not g.is_homogeneous():
            raise ValueError("generators must be homogeneous")

    order = sorted(
        (i for i, g in enumerate(generators) if not g.is_zero()),
        key=lambda i: (generators[i].degree(), i),
    )
    basis: list = []
    leads: list = []
    cof_rows: list = []  # row i: basis[i] over the input generators
    by_coord: dict = {}  # the lead index FreeBasis keeps
    for i in order:
        nf, uses = _full_reduce(generators[i], basis, by_coord)
        if nf.is_zero():
            continue
        row = _combine_cofactors(F, {i: {(): F.one}}, uses, cof_rows)
        lead, lc = nf.leading_term()
        if lc != F.one:
            inv = F.invert(lc)
            nf = nf.scale(inv)
            row = {k: {u: F.mul(inv, c) for u, c in t.items()} for k, t in row.items()}
        by_coord.setdefault(lead[0], {})[lead[1]] = len(basis)
        leads.append(lead)
        basis.append(nf)
        cof_rows.append(row)

    # one tail interreduction pass (see the module docstring); an element's
    # own leading word is no suffix of a tail monomial at its coordinate,
    # which has the same length, so each tail reduces against all leads
    for idx, lead in enumerate(leads):
        b = basis[idx]
        tail = dict(b.terms)
        lc = tail.pop(lead)
        nf, uses = _full_reduce(FreeModuleElement(b.module, tail), basis, by_coord)
        if uses:
            basis[idx] = FreeModuleElement(b.module, {lead: lc, **nf.terms})
            cof_rows[idx] = _combine_cofactors(F, cof_rows[idx], uses, cof_rows)
    return FreeBasis(ambient, basis, [{i: NcPoly(A, t) for i, t in row.items()} for row in cof_rows], by_coord)


def kernel(phi: ModuleMap) -> FreeBasis:
    """Free basis of the kernel of a degree-preserving map of free modules:
    the rows r of the source with sum r_i * images_i = 0, as the rows of
    I - Q*P (module docstring)."""
    images = phi.row_elements()
    F = phi.source.algebra.field
    basis = weak_basis(images, ambient=phi.target)  # zero images are skipped
    P = [{i: p.terms for i, p in row.items()} for row in basis.from_generators]
    rows = []
    for i, g in enumerate(images):
        Q = _full_reduce(g, basis.elements, basis._by_coord)[1]
        acc = _combine_cofactors(F, {i: {(): F.one}}, Q, P)
        rows.append(FreeModuleElement(phi.source, {(l, w): c for l, t in acc.items() for w, c in t.items()}))
    return weak_basis([r for r in rows if not r.is_zero()], ambient=phi.source)
