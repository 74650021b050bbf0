"""Workload ops: build inputs through public constructors, run, check exactly.

``build(fp, workload, ops)`` turns the generator's plain data into library
objects; it is the input half of the set-up time.  ``RUNNERS[workload](fp,
item)`` performs one op and returns its invariants, a small JSON value
compared against the stored reference for the default seed.  Every op checks its own result
exactly and raises ``CheckFailed`` when the check does not hold.

All library access goes through attributes of the ``fp`` package object at
call time, so a tracer that rebinds the library's functions sees every call.
"""

from __future__ import annotations

from fractions import Fraction

from gen import GFP


class CheckFailed(Exception):
    """An op returned a result that fails its exact check."""


def check(condition, what):
    if not condition:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# modules


def _build_modules(fp, op):
    if op["kind"] == "section":
        A = fp.FreeAlgebra(op["d"])
        rows = [[A.from_str(cell) for cell in row] for row in op["rows"]]
        return ("section", A, op["src"], op["tgt"], rows)
    return (op["kind"], fp.parsing.parse_presentation(op["pres"]), op.get("j"))


def _profile(fp, pres):
    """stable_profile + k0_class + torsion of a fresh module."""
    M = pres.module()
    d = pres.d
    p = M.stable_profile()
    cls = M.k0_class()
    tors = M.torsion()
    check(cls.value == Fraction(p.t0) / Fraction(d) ** p.i0, "class is not t0 * d^-i0")
    for j in range(p.i0, p.i0 + 3):
        check(M.hilbert(j) == p.t0 * d ** (j - p.i0), f"tail is not free in degree {j}")
    below = sum(M.hilbert(j) for j in range(M.min_degree, p.i0))
    check(0 <= tors.dimension <= below, "torsion larger than the part below i0")
    if p.t0 == 0:
        check(tors.dimension == below, "finite-dimensional module is not all torsion")
    return [p.i0, p.t0, cls.t, cls.i, tors.dimension]


def _iso(fp, pres, j):
    """pi_star(M) is isomorphic to pi_star(M + k(-j))."""
    M = pres.module()
    k = fp.FpModule.residue(M.algebra).shift(-j)
    X = fp.pi_star(M)
    Y = fp.pi_star(M.direct_sum(k))
    check(fp.is_isomorphic(X, Y), "adding a finite-dimensional summand changed the class")
    return [X.cls.t, X.cls.i, list(Y.witness)]


def _section(fp, A, src, tgt, rows):
    """map -> kernel -> exact sequence -> split_sequence -> Section.verify()."""
    S = A.free_module(src)
    phi = fp.ModuleMap(S, A.free_module(tgt), rows)
    K = fp.kernel(phi)
    M = fp.FpModule(S, [])
    N = fp.FpModule(S, list(K.elements))
    L = fp.FpModule(A.free_module(list(K.degrees())), [])
    f = fp.FpModuleMorphism(L, M, fp.ModuleMap(L.F0, S, [b.polys() for b in K.elements]))
    g = fp.FpModuleMorphism(M, N, fp.ModuleMap.identity(S))
    profile = N.stable_profile()
    sec = fp.split_sequence(f, g, profile.i0, degrees=4)
    check(sec.verify(), "section does not verify")
    return [K.rank, profile.i0, profile.t0]


def _run_modules(fp, item):
    kind = item[0]
    if kind == "profile":
        return _profile(fp, item[1])
    if kind == "iso":
        return _iso(fp, item[1], item[2])
    return _section(fp, *item[1:])


# ---------------------------------------------------------------------------
# limit algebra


def _build_limit(fp, op, gfp):
    d, level, kind = op["d"], op["level"], op["kind"]
    if kind == "regular":
        return (kind, fp.AFMatrix(d, level, op["a"], fp.QQ), fp.AFMatrix(d, level, op["a"], gfp))
    if kind == "hom":
        return (kind, fp.AFMatrix(d, level, op["a"]), fp.AFMatrix(d, level, op["b"]))
    if kind == "simple":
        return (kind, fp.AFMatrix(d, level, op["a"]))
    return (kind, fp.AFMatrix(d, level, op["e"]), op["rank"])


def _run_limit(fp, item):
    kind = item[0]
    if kind == "regular":
        for a in item[1:]:
            x = a.vn_regular_witness()
            check(a * x * a == a, f"a*x*a != a over {a.field!r}")
        return None
    if kind == "hom":
        a, b = item[1:]
        ab = a * b
        r = a.level + 1
        check(ab.embed(r) == a.embed(r) * b.embed(r), "embedding is not multiplicative")
        return [ab.level, sum(1 for row in ab.entries for v in row if v != 0)]
    if kind == "simple":
        a = item[1]
        us, vs = a.simplicity_witness()
        acc = fp.AFMatrix.zero(a.d, 0)
        for u, v in zip(us, vs):
            acc = acc + u * a * v
        check(acc == fp.AFMatrix.scalar(a.d, 1), "sum u*a*v != 1")
        return [len(us)]
    e, ones = item[1:]
    cls = e.k0_class()
    rk = e.rank()
    check(rk == ones, "rank of the idempotent != number of ones it was built from")
    check(cls.value == Fraction(ones) / Fraction(e.d) ** e.level, "class != rank / d^level")
    return [rk, cls.t, cls.i]


# ---------------------------------------------------------------------------
# Leavitt


def _element(fp, A, terms):
    out = fp.LeavittElement.zero(A)
    for c, w, v in terms:
        out = out + fp.LeavittElement.monomial(A, w, v, c)
    return out


def _build_leavitt(fp, op, algebras):
    A = algebras[op["d"]]
    kind = op["kind"]
    if kind == "assoc":
        return (kind, A, *(_element(fp, A, op[k]) for k in "abc"))
    if kind == "matrix":
        return (kind, A, _element(fp, A, op["a"]), _element(fp, A, op["b"]))
    if kind == "eval":
        return (kind, A, op["text"])
    # the element is sum c w* u; its flat coefficient at w is sum c u
    expected: dict = {}
    for c, w, u in op["a"]:
        poly = expected.setdefault(w, {})
        poly[u] = poly.get(u, 0) + c
        if not poly[u]:
            del poly[u]
    expected = {w: p for w, p in expected.items() if p}
    return (kind, A, _element(fp, A, op["a"]), op["r"], expected)


def _run_leavitt(fp, item):
    kind, A = item[:2]
    if kind == "assoc":
        a, b, c = item[2:]
        left = (a * b) * c
        check(left.equals(a * (b * c)), "(ab)c != a(bc)")
        return [len(left.terms)]
    if kind == "flat":
        a, r, expected = item[2:]
        out = fp.flat_decompose(a, r)
        got = {w: p.terms for w, p in out.items() if p.terms}
        check(got == expected, "flat decomposition differs from the construction")
        check(fp.flat_reassemble(A, out).equals(a), "flat reassembly differs")
        return [len(got)]
    if kind == "matrix":
        a, b = item[2:]
        sa, sb = fp.l0_to_s(a), fp.l0_to_s(b)
        check(fp.l0_to_s(a * b) == sa * sb, "l0_to_s is not multiplicative")
        check(fp.s_to_l0(sa).equals(a), "s_to_l0(l0_to_s(a)) != a")
        return [sa.level, sb.level]
    text = str(fp.parsing.parse_leavitt(A, item[2]).canonical())
    check(str(fp.parsing.parse_leavitt(A, text)) == text, "canonical text does not round-trip")
    return text


# ---------------------------------------------------------------------------


def build(fp, workload, ops):
    """Library inputs for a list of generated ops."""
    if workload == "modules":
        return [_build_modules(fp, op) for op in ops]
    if workload == "limit_algebra":
        gfp = fp.GF(GFP)
        return [_build_limit(fp, op, gfp) for op in ops]
    algebras = {d: fp.FreeAlgebra(d) for d in (2, 3)}
    return [_build_leavitt(fp, op, algebras) for op in ops]


RUNNERS = {"modules": _run_modules, "limit_algebra": _run_limit, "leavitt": _run_leavitt}
