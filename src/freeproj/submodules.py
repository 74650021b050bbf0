"""Free bases of graded left submodules: the weak algorithm.

Over the free algebra, one-sided leading-term interference is exactly
left-multiple overlap: u*w = v*w' forces one of w, w' to be a suffix of the
other (in the same coordinate).  So interreducing a homogeneous generating
set until no leading term is a word-times another leading term yields a set
whose left multiples have pairwise distinct leading monomials.  Such a set
is a free basis of the submodule it generates, and head reduction against it
is a complete membership test.

The algorithm tracks cofactors both ways: every basis element is recorded as
a left combination of the input generators, and every input generator as a
left combination of the basis.  Kernels and syzygies fall out of those
records exactly: if the generators g satisfy g = Q*b and b = P*g for a free
basis b, then every syzygy row r satisfies r*Q = 0, hence r = r*(I - Q*P),
so the rows of I - Q*P generate the whole syzygy module.
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
    generators; generator_expressions[i] expresses input generator i over the
    basis.  Both are sparse rows {index: NcPoly} with coefficients acting on
    the left.
    """

    __slots__ = ("ambient", "elements", "from_generators", "generator_expressions", "_by_coord")

    def __init__(self, ambient, elements, from_generators, generator_expressions):
        self.ambient = ambient
        self.elements = tuple(elements)
        self.from_generators = tuple(from_generators)
        self.generator_expressions = tuple(generator_expressions)
        self._by_coord = _lead_index(self.elements)

    @property
    def rank(self) -> int:
        return len(self.elements)

    def degrees(self) -> tuple:
        return tuple(b.degree() for b in self.elements)

    def submodule_dim(self, j: int) -> int:
        """Dimension of the degree-j piece of the generated submodule.

        Exact because the basis is free: each basis element of degree a
        contributes the d^(j-a) words that can multiply it.
        """
        d = self.ambient.algebra.d
        return sum(d ** (j - a) for a in self.degrees() if a <= j)

    def reduce(self, elem: FreeModuleElement) -> FreeModuleElement:
        nf, _ = self.reduce_with_cofactors(elem)
        return nf

    def reduce_with_cofactors(self, elem: FreeModuleElement):
        """Full normal form plus the row q with elem = nf + sum q[i]*basis[i]."""
        nf, uses = _full_reduce(elem, self.elements, self._by_coord)
        return nf, uses

    def contains(self, elem: FreeModuleElement) -> bool:
        return self.reduce(elem).is_zero()

    def __repr__(self):
        return f"FreeBasis(rank={self.rank}, degrees={self.degrees()})"


def _lead_index(elements):
    """{coordinate alpha: [(index, leading word at alpha)]} for basis elements."""
    by_coord: dict = {}
    for idx, b in enumerate(elements):
        (alpha, w), _ = b.leading_term()
        by_coord.setdefault(alpha, []).append((idx, w))
    return by_coord


def _find_reducer(alpha, w, by_coord):
    """Index of a basis element whose leading word is a suffix of w at alpha."""
    for idx, wb in by_coord.get(alpha, ()):
        n = len(wb)
        if n <= len(w) and (n == 0 or w[len(w) - n:] == wb):
            return idx, w[: len(w) - n]
    return None, None


def _full_reduce(elem, basis, by_coord):
    """Reduce every monomial of elem against the monic basis.

    Returns (normal form, uses) with uses a dict {basis index: NcPoly q}
    such that elem = nf + sum q*basis.  Terms are processed in decreasing
    order, so the result is the canonical fully reduced form.
    """
    module = elem.module
    A = module.algebra
    F = A.field
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
    return FreeModuleElement(module, nf), {i: NcPoly(A, q) for i, q in uses.items() if q}


def _combine_cofactors(A, base_row: dict, uses: dict, rows: list) -> dict:
    """base_row - sum uses[j] * rows[j], rows being sparse NcPoly rows."""
    F = A.field
    out = {i: dict(p.terms) for i, p in base_row.items()}
    for j, q in uses.items():
        minus_q = (-q).terms
        for i, p in rows[j].items():
            acc = out.setdefault(i, {})
            _add_products(F, acc, minus_q, p.terms, add)
            if not acc:
                del out[i]
    return {i: NcPoly(A, t) for i, t in out.items()}


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
    cof_rows: list = []  # row i: basis[i] over the input generators
    by_coord: dict = {}
    for i in order:
        g = generators[i]
        nf, uses = _full_reduce(g, basis, by_coord)
        if nf.is_zero():
            continue
        row = _combine_cofactors(A, {i: A.one()}, uses, cof_rows)
        _, lc = nf.leading_term()
        if lc != F.one:
            inv = F.invert(lc)
            nf = nf.scale(inv)
            row = {k: p.scale(inv) for k, p in row.items()}
        idx = len(basis)
        basis.append(nf)
        cof_rows.append(row)
        (alpha, w), _ = nf.leading_term()
        by_coord.setdefault(alpha, []).append((idx, w))

    # tail interreduction to the canonical fully reduced basis
    changed = True
    while changed:
        changed = False
        for idx in range(len(basis)):
            b = basis[idx]
            others = basis[:idx] + basis[idx + 1:]
            coord = {
                a: [(j if j < idx else j - 1, w) for j, w in lst if j != idx]
                for a, lst in by_coord.items()
            }
            nf, uses = _full_reduce(b, others, coord)
            if uses:
                remap = {(j if j < idx else j + 1): q for j, q in uses.items()}
                basis[idx] = nf
                cof_rows[idx] = _combine_cofactors(A, cof_rows[idx], remap, cof_rows)
                changed = True

    final_coord = _lead_index(basis)
    gen_rows = []
    for g in generators:
        nf, uses = _full_reduce(g, basis, final_coord)
        if not nf.is_zero():
            raise AssertionError("input generator did not reduce to zero against its basis")
        gen_rows.append(uses)
    return FreeBasis(ambient, basis, cof_rows, gen_rows)


def reduce(elem: FreeModuleElement, basis: FreeBasis) -> FreeModuleElement:
    """Normal form of elem modulo the submodule spanned by the basis."""
    return basis.reduce(elem)


def syzygies(generators, ambient: GradedFreeModule | None = None) -> FreeBasis:
    """Free basis of the kernel of e_i -> g_i from the free module on the
    generator degrees.

    Requires every generator to be nonzero homogeneous (a zero generator has
    no well-defined degree to place its free cover generator in).
    """
    generators = list(generators)
    if ambient is None:
        if not generators:
            raise ValueError("ambient module required for an empty generating set")
        ambient = generators[0].module
    A = ambient.algebra
    degrees = []
    for g in generators:
        if g.is_zero():
            raise ValueError("syzygies of a zero generator are not graded; drop it first")
        degrees.append(g.degree())
    cover = A.free_module(degrees)
    return _syzygy_basis(generators, ambient, cover)


def kernel(phi: ModuleMap) -> FreeBasis:
    """Free basis of the kernel of a degree-preserving map of free modules."""
    images = phi.row_elements()
    return _syzygy_basis(images, phi.target, phi.source)


def _syzygy_basis(images, ambient, cover):
    """Common core: basis of {r : sum r_i * images_i = 0} inside `cover`."""
    A = ambient.algebra
    basis = weak_basis([g for g in images if not g.is_zero()], ambient=ambient)
    # generator_expressions only covers the nonzero images, in their order
    nonzero = [i for i, g in enumerate(images) if not g.is_zero()]
    Q = {}
    for pos, i in enumerate(nonzero):
        Q[i] = basis.generator_expressions[pos]
    P = [
        {nonzero[k]: p for k, p in row.items()}
        for row in basis.from_generators
    ]
    rows = []
    one = A.one()
    for i in range(len(images)):
        acc = _combine_cofactors(A, {i: one}, Q.get(i, {}), P)
        terms = {}
        for l, p in acc.items():
            for w, c in p.terms.items():
                terms[(l, w)] = c
        rows.append(FreeModuleElement(cover, terms))
    live = [r for r in rows if not r.is_zero()]
    return weak_basis(live, ambient=cover)
