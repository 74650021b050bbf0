"""The direct limit of matrix algebras M_d(k) tensor ... tensor M_d(k).

An element is a d^r x d^r matrix at some level r, with rows and columns
indexed by words of length r in lex order.  The transition to the next level
tensors an identity factor on as the new FIRST index, so at the matrix level
it is the block-diagonal embedding a -> diag(a,..,a).  Two representatives
are identified when they agree after embedding; the canonical form is the
least-level representative.

The normalized rank rank / d^r is invariant under the embedding; it
computes the class of an idempotent in the dyadic-style group Z[1/d].

Entries are canonical field values (an int for every integral QQ value,
ints 0..p-1 over GF(p)).  The constructor coerces them, as does `scalar`
through it; `from_json` reads each entry with the field's `from_str`,
`zero`, `matrix_unit` and the simplicity units place `field.zero`,
`field.one` and the inverse of an entry, `embed` and `canonical` slice
canonical entries, `scale` coerces each product itself (none by 1), `+`
adds mod p or coerces a QQ sum of two Fractions (the one sum that may be
integral), `*` takes the `dense_mul` of canonical forms and the vN
witness is `generalized_inverse`'s, so they skip the constructor via
`_from_canonical`.  A QQ witness from the prime route is x = rows/den,
rows of ints over den = |det| (`_from_ints`): its `entries` slot stays
unset and `__getattr__` makes it rational on the first read, while
`canonical` scans the int rows (den*x has x's block pattern) and a
product with x on the right hands them to `dense_mul` with den, so
a*x*a == a makes no entry of x rational.  A product never embeds: a
lower-level factor acts on each diagonal block of the other, N^2 n
products for canonical sides N >= n, on packed rows of the right factor
from side 8 over GF(p), 16 over QQ.  `canonical` marks the matrix it
returns, so a product, canonical when made, is not scanned again as the
factor of the next product.  Every constructor refuses a side above
MAX_SIDE before building any row.
"""

from __future__ import annotations

from .errors import BudgetExceeded, LevelDecrease, NotIdempotent, ParseError, ZeroElement
from .fields import QQ, read_int
from .linalg import (
    SparseMatrix,
    _ratio,
    dense_mul,
    generalized_inverse,
    rank,
)


# The largest side d**level that `AFMatrix.from_json` allocates (2048^2
# entries), and that the CLI lets `s-calc embed` and `leavitt-eval --level`
# build.  For d >= 2 a level of MAX_SIDE.bit_length() or more is over it,
# which is refused before d**level is formed.
MAX_SIDE = 2048

# The most entries that `simplicity_witness` builds: its 2n matrix units of
# side n = d**level hold 2*n**3 entries, refused above this before any is
# built.  Level 7 at d = 2 is the last level it admits there.
MAX_SIMPLICITY_ENTRIES = 2**22


class AFMatrix:
    """A leveled matrix representative of an element of the limit algebra."""

    # _least: canonical() returned this matrix, so it is its own canonical form;
    # _ints: None, or (den, rows) with entries = rows/den, rows of ints over a
    # QQ denominator den > 1, the prime route's witness, whose entries slot
    # stays unset until __getattr__ fills it on the first read
    __slots__ = ("d", "field", "level", "entries", "_least", "_ints")

    def __init__(self, d: int, level: int, entries, field=QQ):
        if d < 1 or level < 0:
            raise ValueError("need d >= 1 and level >= 0")
        _check_side(d, level, error=BudgetExceeded)
        n = d**level
        entries = tuple(tuple(field.coerce(v) for v in row) for row in entries)
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError(f"expected a {n}x{n} matrix at level {level}")
        self.d = d
        self.field = field
        self.level = level
        self.entries = entries
        self._least = False
        self._ints = None

    @classmethod
    def _from_canonical(cls, d: int, level: int, rows: tuple, field) -> "AFMatrix":
        """An AFMatrix on tuple rows of canonical values: no coercion or check."""
        out = object.__new__(cls)
        out.d, out.field, out.level, out.entries, out._least, out._ints = d, field, level, rows, False, None
        return out

    @classmethod
    def _from_ints(cls, d: int, level: int, den: int, rows: tuple) -> "AFMatrix":
        """The QQ matrix rows/den, for tuple rows of ints and den > 1, its
        entries unset until they are read."""
        out = object.__new__(cls)
        out.d, out.field, out.level, out._least, out._ints = d, QQ, level, False, (den, rows)
        return out

    def __getattr__(self, name):
        # reached only for an unset slot: the entries of a matrix held as
        # rows of ints over den, made rational once, on the first read
        if name != "entries" or self._ints is None:
            raise AttributeError(name)
        den, rows = self._ints
        self.entries = tuple(tuple(_ratio(v, den) for v in row) for row in rows)
        return self.entries

    # -- constructors ---------------------------------------------------------

    @classmethod
    def scalar(cls, d: int, value, field=QQ) -> "AFMatrix":
        return cls(d, 0, [[field.coerce(value)]], field)

    @classmethod
    def zero(cls, d: int, level: int = 0, field=QQ) -> "AFMatrix":
        _check_side(d, level, error=BudgetExceeded)
        n = d**level
        return cls._from_canonical(d, level, ((field.zero,) * n,) * n, field)

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
        """value times E_{i,j} at a level, for a canonical value: zero rows
        shared, no coercion."""
        zero = (field.zero,) * d**level
        rows = (zero,) * len(zero)
        return cls._from_canonical(d, level, rows[:i] + (zero[:j] + (value,) + zero[j + 1:],) + rows[i + 1:], field)

    # -- level handling ---------------------------------------------------------

    def embed(self, level: int) -> "AFMatrix":
        """The same element at a higher level: iterated identity-tensor."""
        if level < self.level:
            raise LevelDecrease(f"cannot embed level {self.level} down to {level}")
        d, out = self.d, self
        while out.level < level:
            pad = (out.field.zero,) * d**out.level
            rows = tuple(pad * b + src + pad * (d - 1 - b) for b in range(d) for src in out.entries)
            # at d = 1 every level is the same 1x1 algebra: one step reaches the target
            out = AFMatrix._from_canonical(d, level if d == 1 else out.level + 1, rows, out.field)
        return out

    def canonical(self) -> "AFMatrix":
        """Least-level representative: peel off identity tensor factors.  A
        matrix it returned above level 0 is marked, and comes back at once,
        unscanned."""
        out = self
        while out.level > 0 and not out._least:
            d, n = out.d, out.d ** (out.level - 1)
            # den*x has the zero pattern and the equal blocks of x
            rows = out.entries if out._ints is None else out._ints[1]
            zeros = (0,) * (n * (d - 1))
            for k, row in enumerate(rows):
                lo = k // n * n
                if row[:lo] + row[lo + n:] != zeros or row[lo:lo + n] != rows[k - lo][:n]:
                    out._least = True
                    return out
            # at d = 1 every level is the same 1x1 algebra: one step reaches level 0
            lower, rows = 0 if d == 1 else out.level - 1, tuple(row[:n] for row in rows[:n])
            if out._ints is None:
                out = AFMatrix._from_canonical(d, lower, rows, out.field)
            else:
                out = AFMatrix._from_ints(d, lower, out._ints[0], rows)
        return out

    def _common(self, other: "AFMatrix"):
        if (self.d, self.field) != (other.d, other.field):
            raise ValueError("elements live in different limit algebras")
        r = max(self.level, other.level)
        return self.embed(r), other.embed(r)

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        a, b = self._common(other)
        F, p = a.field, a.field.characteristic
        rows = tuple(tuple([(x + y) % p for x, y in zip(ra, rb)] if p else
                           [x + y if type(x) is int or type(y) is int else F.coerce(x + y) for x, y in zip(ra, rb)])
                     for ra, rb in zip(a.entries, b.entries))
        return AFMatrix._from_canonical(a.d, a.level, rows, F).canonical()

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
        # b held as rows of ints over den is multiplied in that form
        den, B = (1, b.entries) if b._ints is None else b._ints
        F, A, n = a.field, a.entries, len(B)
        if len(A) > n:  # a * diag(b, .., b): column block k is a's column block k times b
            live = [i for i, r in enumerate(A) if any(r)]  # a zero row of a stays zero
            rows = [[F.zero] * len(A) for _ in A]
            for k in range(0, len(A), n):
                for i, part in zip(live, dense_mul(F, [A[i][k:k + n] for i in live], B, den)):
                    rows[i][k:k + n] = part
        else:  # diag(a, .., a) * b: row block k is a times b's row block k
            rows = [row for k in range(0, n, len(A)) for row in dense_mul(F, A, B[k:k + len(A)], den)]
        rows = tuple(map(tuple, rows))
        return AFMatrix._from_canonical(a.d, max(a.level, b.level), rows, F).canonical()

    def scale(self, c) -> "AFMatrix":
        F, c = self.field, self.field.coerce(c)
        if c == 1:  # the entries are canonical already
            return self.canonical()
        rows = tuple(tuple(F.coerce(F.mul(c, v)) for v in row) for row in self.entries)
        return AFMatrix._from_canonical(self.d, self.level, rows, F).canonical()

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)

    def __eq__(self, other):
        if not isinstance(other, AFMatrix):
            return NotImplemented
        if (self.d, self.field) != (other.d, other.field):
            return False
        a, b = self._common(other)
        return a.entries == b.entries

    def __repr__(self):
        return f"AFMatrix(d={self.d}, level={self.level})"

    # -- invariants ----------------------------------------------------------------

    def rank(self) -> int:
        return rank(SparseMatrix.from_dense(self.field, self.entries))

    def k0_class(self):
        """rank(e) * d^(-level) for an idempotent e, as a class in Z[1/d]; rank(e)
        is tr(e) read as an integer over QQ and over GF(p) for p above the side."""
        from .qgr import QgrClass

        if self * self != self:
            raise NotIdempotent("k0_class requires an idempotent")
        p = self.field.characteristic
        tr = sum(row[i] for i, row in enumerate(self.entries))
        r = self.rank() if 0 < p <= len(self.entries) else int(tr % p if p else tr)
        return QgrClass(r, self.level, self.d)

    def vn_regular_witness(self) -> "AFMatrix":
        """An x with a*x*a = a, from one elimination of a.

        With T*a = [C; 0] in reduced row echelon form, x = Q*T_k: row c of x
        is the transform row of the pivot in column c, all other rows zero.
        a*Q is the pivot columns of a and C writes every column of a over
        them, so a*x*a = (a*Q)*C = a.  The elimination's values are
        canonical, so x skips the constructor's coercion.  A dense QQ a
        inverted mod primes gives x as rows of ints over den = |det| > 1,
        and x is kept so: its entries are made rational on their first
        read, and a product with x on the right never makes them.
        """
        den, x = generalized_inverse(self.field, self.entries)
        if den == 1:
            return AFMatrix._from_canonical(self.d, self.level, tuple(map(tuple, x)), self.field)
        return AFMatrix._from_ints(self.d, self.level, den, tuple(x))

    def simplicity_witness(self):
        """Rows (u_i), (v_i) with sum u_i * a * v_i = 1, witnessing simplicity.

        With a_{pq} the first nonzero entry, u_i = E_{i,p} / a_{pq} and
        v_i = E_{q,i} give sum_i E_{i,p} a E_{q,i} / a_{pq} = identity.
        More than MAX_SIMPLICITY_ENTRIES entries in all is BudgetExceeded.
        """
        if self.is_zero():
            raise ZeroElement("no simplicity witness for 0")
        F = self.field
        n = len(self.entries)
        if 2 * n**3 > MAX_SIMPLICITY_ENTRIES:
            raise BudgetExceeded(
                f"a simplicity witness at d={self.d}, level={self.level} is {2 * n} matrices "
                f"of side {n}, more than MAX_SIMPLICITY_ENTRIES = {MAX_SIMPLICITY_ENTRIES} entries in all")
        p, q = next(
            (i, j) for i in range(n) for j in range(n) if self.entries[i][j] != 0
        )
        inv = F.invert(self.entries[p][q])
        # at d = 1 every level is the same 1x1 algebra: the level-0 pair is a witness
        level = 0 if self.d == 1 else self.level
        us = [AFMatrix._unit(self.d, level, i, p, inv, F) for i in range(n)]
        vs = [AFMatrix._unit(self.d, level, q, i, F.one, F) for i in range(n)]
        return us, vs

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        entries = []
        for i, row in enumerate(self.entries):
            for j, v in enumerate(row):
                if v != 0:
                    entries.append([i, j, self.field.to_str(v)])
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
        rows = [[field.zero] * n for _ in range(n)]
        given = {}
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
            rows[i][j] = field.from_str(str(s))
        return cls._from_canonical(d, level, tuple(map(tuple, rows)), field)


def _check_side(d: int, level: int, where: str = "", error=ParseError) -> None:
    """`error`, its message prefixed by `where`, if the side d**level is
    above MAX_SIDE; a huge level is refused before d**level is formed."""
    if d > 1 and (level >= MAX_SIDE.bit_length() or d**level > MAX_SIDE):
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


def word_unrank(d: int, rank: int, length: int):
    digits = []
    for _ in range(length):
        rank, i = divmod(rank, d)
        digits.append(i)
    return tuple(reversed(digits))
