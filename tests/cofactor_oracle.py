"""The weak algorithm as it was when every basis recorded its cofactors.

`weak_basis` tracked, for every reduction, the words and coefficients it
used (`_full_reduce`'s uses), combined them into rows expressing each basis
element over the input generators, rescaled those rows with the element,
and wrapped them as `NcPoly` rows in `FreeBasis.from_generators`, for every
basis, though only `kernel` reads them.  Kept verbatim as the oracle the
bases of `weak_basis` and `kernel` must match exactly: same elements with
the same value types and term key order, the same lead index, and, on the
basis `kernel` builds with cofactors, the same from_generators rows.
"""

from operator import add

from freeproj.freealg import FreeModuleElement, GradedFreeModule, ModuleMap, NcPoly, term_key
from freeproj.linalg import _add_products, _add_terms, _lift, _row_axpy
from freeproj.submodules import FreeBasis, _entry

from std_basis_oracle import find_reducer_by_scan


def leading_term(elem):
    """((alpha, word), coeff) at the maximal monomial of elem."""
    mon = max(elem.terms, key=term_key)
    return mon, elem.terms[mon]


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
        idx, u = find_reducer_by_scan(alpha, w, by_coord)
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
        lead, lc = leading_term(nf)
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
    ints = []  # each element as `_entry` makes it: its lead first
    for b in basis:
        work = _lift(F, b.terms)[0]
        lead = max(work, key=term_key)
        ints.append(_entry(F, {lead: work.pop(lead), **work}))
    lengths = {alpha: {len(w) for w in words} for alpha, words in by_coord.items()}
    return FreeBasis(ambient, basis, [{i: NcPoly(A, t) for i, t in row.items()} for row in cof_rows], by_coord,
                     lengths, [b.degree() for b in basis], ints)


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
