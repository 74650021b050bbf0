"""The direct limit of matrix algebras M_d(k) tensor ... tensor M_d(k).

An element is a d^r x d^r matrix at some level r, with rows and columns
indexed by words of length r in lex order.  The transition to the next level
tensors an identity factor on as the new FIRST index, so at the matrix level
it is the block-diagonal embedding a -> diag(a,..,a).  Two representatives
are identified when they agree after embedding; the canonical form is the
least-level representative.

The normalized rank rank / d^r is invariant under the embedding; it
computes the class of an idempotent in the dyadic-style group Z[1/d].

An element is held as rows / den: `rows` one dict row {column: nonzero
int} per row, its columns ascending, and `den` one denominator >= 1, in
lowest terms (the gcd of den and every entry is 1), so two equal elements
at one level have equal (den, rows).  Over GF(p) den is 1 and the ints are
1..p-1.  A matrix unit, the image of a Leavitt monomial w* v, is one
stored entry, and every operation reads the stored entries alone.
`entries`, the field values, is a read-only n x n view, made on its first
read.  The constructor and `from_json` lift their nonzero values, as dict
rows, to ints over the lcm of their denominators (`_lifted`), and every
other matrix is made by `_new` on ints: `embed` shifts rows into the diagonal blocks and `canonical` compares
them there at the same den, `+` scales both sides to the lcm of their
denominators, `scale` multiplies by a numerator and a denominator, `*`
takes the `dense_mul` of the int rows over den_a * den_b, and the vN
witness is `generalized_inverse` of the int rows, its rows times den over
its own denominator; a new common factor is divided out only where one can
appear: in products, sums, scales and witnesses.  So every operation works
on integers, and neither the witness nor a*x*a == a makes an entry
rational.  A product never embeds: a lower-level factor acts on each
diagonal block of the other, N^2 n products for canonical sides N >= n:
sparse row products for n below 8, and on packed rows of the right factor
from 8, over either field.
`canonical` marks the matrix it returns, so a product, canonical when
made, is not scanned again as the factor of the next product.  Every
constructor refuses a side above MAX_SIDE before building any row.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd, lcm

from .errors import BudgetExceeded, LevelDecrease, NotIdempotent, ParseError, ZeroElement
from .fields import QQ, QgrClass, power_above, read_int
from .linalg import SparseMatrix, _add_terms, _denominator, _ratio, dense_mul, generalized_inverse, rank


# The largest side d**level that `AFMatrix.from_json` allocates (2048
# rows), and that the CLI lets `s-calc embed` and `leavitt-eval --level`
# build.  For d >= 2 a level of MAX_SIDE.bit_length() or more is over it,
# which is refused before d**level is formed.
MAX_SIDE = 2048

# The most entries that `simplicity_witness` builds: its 2n matrix units of
# side n = d**level hold 2*n**3 entries, refused above this before any is
# built.  Level 7 at d = 2 is the last level it admits there.
MAX_SIMPLICITY_ENTRIES = 2**22


class AFMatrix:
    """A leveled matrix representative of an element of the limit algebra."""

    # _entries: None until `entries` is first read; _least: the canonical form once known,
    # True for this matrix itself (never self: no matrix is in a reference cycle)
    __slots__ = ("d", "field", "level", "den", "rows", "_entries", "_least")

    def __init__(self, d: int, level: int, entries, field=QQ):
        """The element of the n x n values `entries`, a sequence of n sequences, at a level."""
        if d < 1 or level < 0:
            raise ValueError("need d >= 1 and level >= 0")
        _check_side(d, level, error=BudgetExceeded)
        n, coerce = d**level, field.coerce
        rows = [{j: x for j, v in enumerate(row) if (x := coerce(v))} for row in entries]
        if len(rows) != n or any(len(row) != n for row in entries):
            raise ValueError(f"expected a {n}x{n} matrix at level {level}")
        self.den, self.rows = _lifted(field, rows)
        self.d, self.field, self.level, self._entries, self._least = d, field, level, None, None

    @classmethod
    def _new(cls, d: int, level: int, rows: tuple, field, den: int = 1, lowest: bool = False) -> "AFMatrix":
        """rows/den for dict rows of nonzero ints, columns ascending, and den
        >= 1 (ints 1..p-1 and den 1 over GF(p)), in lowest terms: the gcd of
        den and every entry, taken row by row over the rows with entries
        until it is 1, is divided out, unless the caller knows rows/den is
        in lowest terms already (lowest).  No coercion or check."""
        if den != 1 and not lowest:
            g = den
            for row in filter(None, rows):
                if (g := gcd(g, *row.values())) == 1:
                    break
            if g != 1:
                den, rows = den // g, tuple({j: v // g for j, v in row.items()} for row in rows)
        out = object.__new__(cls)
        out.d, out.field, out.level, out.den, out.rows, out._entries, out._least = d, field, level, den, rows, None, None
        return out

    @property
    def entries(self) -> tuple:
        """The canonical field values as n x n tuple rows, made once."""
        if self._entries is None:
            den, cols, zero = self.den, range(len(self.rows)), repeat(0)
            values = self.rows if den == 1 else [{j: _ratio(v, den) for j, v in row.items()} for row in self.rows]
            self._entries = tuple(tuple(map(row.get, cols, zero)) for row in values)
        return self._entries

    # -- constructors ---------------------------------------------------------

    @classmethod
    def scalar(cls, d: int, value, field=QQ) -> "AFMatrix":
        return cls(d, 0, [[value]], field)

    @classmethod
    def zero(cls, d: int, level: int = 0, field=QQ) -> "AFMatrix":
        _check_side(d, level, error=BudgetExceeded)
        return cls._new(d, level, tuple({} for _ in range(d**level)), field)

    @classmethod
    def matrix_unit(cls, d: int, u, v, field=QQ) -> "AFMatrix":
        """E_{u,v} for words u, v of equal length."""
        u, v = tuple(u), tuple(v)
        if len(u) != len(v):
            raise ValueError("matrix unit needs words of equal length")
        level = len(u)
        _check_side(d, level, error=BudgetExceeded)
        return cls._unit(d, level, word_rank(d, u), word_rank(d, v), field.one, field)

    @classmethod
    def _unit(cls, d: int, level: int, i: int, j: int, value, field) -> "AFMatrix":
        """value times E_{i,j} at a level, for a canonical value: one stored
        entry, no coercion."""
        rows = [{} for _ in range(d**level)]
        rows[i] = {j: value.numerator}
        return cls._new(d, level, tuple(rows), field, value.denominator, lowest=True)

    # -- level handling ---------------------------------------------------------

    def embed(self, level: int) -> "AFMatrix":
        """The same element at a higher level, each row shifted into each
        diagonal block, with the canonical form of self if it is known."""
        if level < self.level:
            raise LevelDecrease(f"cannot embed level {self.level} down to {level}")
        d, out = self.d, self
        while out.level < level:
            n = len(out.rows)
            rows = out.rows + tuple(_shifted(src, b * n) for b in range(1, d) for src in out.rows)
            # at d = 1 every level is the same 1x1 algebra: one step reaches the target
            out = AFMatrix._new(d, level if d == 1 else out.level + 1, rows, out.field, out.den, lowest=True)
        if out is not self:
            out._least = self if self._least is True else self._least
        return out

    def canonical(self) -> "AFMatrix":
        """Least-level representative: peel off identity tensor factors.  It
        is kept on self and on itself, so a second call, on either, or on an
        embedding of either, scans nothing."""
        if self._least is not None:
            return self if self._least is True else self._least
        out = self
        while out.level > 0:
            d, rows = out.d, out.rows
            n = len(rows) // d
            # diag(c, .., c) for c = rows[:n]: row k is row k mod n shifted by
            # its block, and in the last block that keeps c in n columns
            if any(len(rows[k]) != len(rows[k % n]) or rows[k] != _shifted(rows[k % n], k - k % n)
                   for k in range(n, len(rows))):
                break
            # at d = 1 every level is the same 1x1 algebra: one step reaches level 0
            out = AFMatrix._new(d, 0 if d == 1 else out.level - 1, rows[:n], out.field, out.den, lowest=True)
        out._least = True
        if out is not self:
            self._least = out
        return out

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        if (self.d, self.field) != (other.d, other.field):
            raise ValueError("elements live in different limit algebras")
        r = max(self.level, other.level)
        a, b = self.embed(r), other.embed(r)
        F, den = a.field, lcm(a.den, b.den)
        s, t = den // a.den, den // b.den
        rows = []
        for ra, rb in zip(a.rows, b.rows):
            row = {j: s * v for j, v in ra.items()}
            _add_terms(F, row, [(j, t * v) for j, v in rb.items()])
            rows.append(dict(sorted(row.items())))
        return AFMatrix._new(a.d, a.level, tuple(rows), F, den).canonical()

    def __mul__(self, other):
        """The product of the canonical forms at the higher of their levels;
        a level-0 factor is a scalar."""
        if not isinstance(other, AFMatrix):
            return self.scale(other)
        if (self.d, self.field) != (other.d, other.field):
            raise ValueError("elements live in different limit algebras")
        a, b = self.canonical(), other.canonical()
        if a.level == 0 or b.level == 0:
            return b.scale(a.entries[0][0]) if a.level == 0 else a.scale(b.entries[0][0])
        F, A, B = a.field, a.rows, b.rows
        n = len(B)
        if len(A) > n:  # a * diag(b, .., b): column block k is a's column block k times b
            blocks: dict = {}  # k -> {i: the entries of row i of a in column block k, shifted to block 0}
            for i, row in enumerate(A):
                for c, v in row.items():
                    blocks.setdefault(c // n, {}).setdefault(i, {})[c % n] = v
            rows = [{} for _ in A]
            for k in sorted(blocks):
                part, shift = blocks[k], k * n
                for i, prod in zip(part, dense_mul(F, list(part.values()), B, n)):
                    rows[i].update(_shifted(prod, shift))
        else:  # diag(a, .., a) * b: row block k is a times b's row block k
            rows = [row for k in range(0, n, len(A)) for row in dense_mul(F, A, B[k:k + len(A)], n)]
        return AFMatrix._new(a.d, max(a.level, b.level), tuple(rows), F, a.den * b.den).canonical()

    def scale(self, c) -> "AFMatrix":
        """c times the element: its rows times c's numerator, over den times
        c's denominator."""
        c, p = self.field.coerce(c), self.field.characteristic
        if c == 1:
            return self.canonical()
        num = c.numerator
        rows = tuple({j: x for j, v in row.items() if (x := num * v % p if p else num * v)} for row in self.rows)
        return AFMatrix._new(self.d, self.level, rows, self.field, self.den * c.denominator).canonical()

    def is_zero(self) -> bool:
        return not any(self.rows)

    def __eq__(self, other):
        if not isinstance(other, AFMatrix):
            return NotImplemented
        if (self.d, self.field) != (other.d, other.field):
            return False
        a, b = self.canonical(), other.canonical()
        return a.level == b.level and a.den == b.den and a.rows == b.rows

    def __repr__(self):
        return f"AFMatrix(d={self.d}, level={self.level})"

    # -- invariants ----------------------------------------------------------------

    def rank(self) -> int:
        n = len(self.rows)
        return rank(SparseMatrix(self.field, n, n, self.rows))

    def k0_class(self):
        """rank(e) * d^(-level) for an idempotent e, as a class in Z[1/d]; rank(e)
        is tr(e) read as an integer over QQ and over GF(p) for p above the side."""
        if self * self != self:
            raise NotIdempotent("k0_class requires an idempotent")
        p = self.field.characteristic
        tr = sum(row.get(i, 0) for i, row in enumerate(self.rows))
        r = self.rank() if 0 < p <= len(self.rows) else tr % p if p else tr // self.den
        return QgrClass(r, self.level, self.d)

    def vn_regular_witness(self) -> "AFMatrix":
        """An x with a*x*a = a, from one elimination of a.

        With T*a = [C; 0] in reduced row echelon form, x = Q*T_k: row c of x
        is the transform row of the pivot in column c, all other rows zero.
        a*Q is the pivot columns of a and C writes every column of a over
        them, so a*x*a = (a*Q)*C = a.  The elimination reads a's int rows
        and gives x' = rows'/den' with rows*x'*rows = rows, so x = den*x',
        its rows times a's den over den' in lowest terms: no entry is made
        rational on any route.
        """
        n, s = len(self.rows), self.den
        den, x = generalized_inverse(SparseMatrix(self.field, n, n, self.rows))
        rows = tuple({j: v * s for j, v in row.items()} for row in x) if s != 1 else tuple(x)
        return AFMatrix._new(self.d, self.level, rows, self.field, den)

    def simplicity_witness(self):
        """Rows (u_i), (v_i) with sum u_i * a * v_i = 1, witnessing simplicity.

        With a_{pq} the first nonzero entry, u_i = E_{i,p} / a_{pq} and
        v_i = E_{q,i} give sum_i E_{i,p} a E_{q,i} / a_{pq} = identity.
        More than MAX_SIMPLICITY_ENTRIES entries in all is BudgetExceeded.
        """
        if self.is_zero():
            raise ZeroElement("no simplicity witness for 0")
        F, rows = self.field, self.rows
        n = len(rows)
        if 2 * n**3 > MAX_SIMPLICITY_ENTRIES:
            raise BudgetExceeded(
                f"a simplicity witness at d={self.d}, level={self.level} is {2 * n} matrices "
                f"of side {n}, more than MAX_SIMPLICITY_ENTRIES = {MAX_SIMPLICITY_ENTRIES} entries in all")
        p, row = next((i, row) for i, row in enumerate(rows) if row)
        q = min(row)
        inv = F.invert(row[q]) * self.den  # 1 / a_pq, with the numerator and denominator of a value
        # at d = 1 every level is the same 1x1 algebra: the level-0 pair is a witness
        level = 0 if self.d == 1 else self.level
        us = [AFMatrix._unit(self.d, level, i, p, inv, F) for i in range(n)]
        vs = [AFMatrix._unit(self.d, level, q, i, F.one, F) for i in range(n)]
        return us, vs

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        F, den = self.field, self.den
        entries = [[i, j, F.to_str(_ratio(v, den))] for i, row in enumerate(self.rows) for j, v in row.items()]
        return {"d": self.d, "level": self.level, "entries": entries}

    @classmethod
    def from_json(cls, data: dict, field=QQ) -> "AFMatrix":
        """Read {"d", "level", "entries": [[i, j, value], ...]}; malformed
        input raises a ParseError naming the offending field, and so do a
        repeated (i, j) and a side d**level above MAX_SIDE, the latter before
        any row is allocated."""
        if not isinstance(data, dict):
            raise ParseError(f"AF matrix JSON must be an object, not {type(data).__name__}")
        for key in ("d", "level", "entries"):
            if key not in data:
                raise ParseError(f"AF matrix JSON lacks the field {key!r}")
        d = _json_int(data["d"], "d")
        level = _json_int(data["level"], "level")
        if d < 1 or level < 0:
            raise ParseError(f"need d >= 1 and level >= 0, got d={d}, level={level}")
        _check_side(d, level)
        if not isinstance(data["entries"], (list, tuple)):
            raise ParseError("field 'entries' must be a list of [i, j, value] entries")
        n = d**level
        given, values = {}, {}
        for k, entry in enumerate(data["entries"]):
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise ParseError(f"entries[{k}] must be a list [i, j, value], got {entry!r}")
            i = _json_int(entry[0], f"entries[{k}][0]")
            j = _json_int(entry[1], f"entries[{k}][1]")
            s = entry[2]
            if not (0 <= i < n and 0 <= j < n):
                raise ParseError(f"entry [{i}, {j}] lies outside the {n}x{n} matrix at level {level}")
            if (i, j) in given:
                raise ParseError(f"entries[{given[i, j]}] and entries[{k}] both give entry [{i}, {j}]")
            given[i, j] = k
            if v := field.from_str(str(s)):
                values[i, j] = v
        den, rows = _lifted(field, _placed(n, values))
        return cls._new(d, level, rows, field, den, lowest=True)


def _lifted(F, rows) -> tuple:
    """(den, rows): dict rows of nonzero canonical values as dict rows of
    ints over den, the lcm of their denominators, so in lowest terms; the
    rows themselves over 1 when every value is an int, as over GF(p)."""
    if F.characteristic or all(type(v) is int for row in rows for v in row.values()):
        return 1, tuple(rows)
    den = lcm(*[lcm(*map(_denominator, row.values())) for row in rows])
    return den, tuple({j: v.numerator * (den // v.denominator) for j, v in row.items()} for row in rows)


def _placed(n: int, values: dict) -> tuple:
    """n dict rows holding the nonzero values {(i, j): v}, columns ascending."""
    rows = [{} for _ in range(n)]
    for (i, j), v in sorted(values.items()):
        rows[i][j] = v
    return tuple(rows)


def _shifted(row: dict, k: int) -> dict:
    """row with every column moved k places right."""
    return {j + k: v for j, v in row.items()}


def _check_side(d: int, level: int, where: str = "", error=ParseError) -> None:
    """`error`, its message prefixed by `where`, if the side d**level is
    above MAX_SIDE; a huge level is refused before d**level is formed."""
    if power_above(1, d, level, MAX_SIDE):
        raise error(f"{where}a matrix at d={d}, level={level} has more than {MAX_SIDE} rows")


def _json_int(value, name: str) -> int:
    """An integer, an integral float or a string `read_int` reads; a bool
    or a float with a fractional part is refused."""
    if isinstance(value, str):
        return read_int(value, f"field {name!r}")
    if type(value) is int or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ParseError(f"field {name!r} must be an integer, got {value!r}")


def word_rank(d: int, w) -> int:
    """Lex rank of a word among words of its length (first letter most significant)."""
    r = 0
    for i in w:
        if not 0 <= i < d:
            raise ValueError(f"letter {i} out of range")
        r = r * d + i
    return r
