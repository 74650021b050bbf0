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
ints 0..p-1 over GF(p)).  The constructor coerces them, as do `from_json`,
`matrix_unit`, `scalar` and `+` through it; `embed` and `canonical` slice
canonical entries, `scale` coerces each product itself, `*` takes the
`dense_mul` of canonical forms and the vN witness places the transform rows
of `row_reduce`, so they skip the constructor via `_from_canonical`.  A
product never embeds: a lower-level factor acts on each diagonal block of
the other, N^2 n products for canonical sides N >= n.
"""

from __future__ import annotations

from .errors import BudgetExceeded, LevelDecrease, NotIdempotent, ParseError, ZeroElement
from .fields import QQ, read_int
from .linalg import (
    SparseMatrix,
    dense_add,
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

    __slots__ = ("d", "field", "level", "entries")

    def __init__(self, d: int, level: int, entries, field=QQ):
        if d < 1 or level < 0:
            raise ValueError("need d >= 1 and level >= 0")
        n = d**level
        entries = tuple(tuple(field.coerce(v) for v in row) for row in entries)
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError(f"expected a {n}x{n} matrix at level {level}")
        self.d = d
        self.field = field
        self.level = level
        self.entries = entries

    @classmethod
    def _from_canonical(cls, d: int, level: int, rows: tuple, field) -> "AFMatrix":
        """An AFMatrix on tuple rows of canonical values: no coercion or check."""
        out = object.__new__(cls)
        out.d, out.field, out.level, out.entries = d, field, level, rows
        return out

    # -- constructors ---------------------------------------------------------

    @classmethod
    def scalar(cls, d: int, value, field=QQ) -> "AFMatrix":
        return cls(d, 0, [[field.coerce(value)]], field)

    @classmethod
    def zero(cls, d: int, level: int = 0, field=QQ) -> "AFMatrix":
        n = d**level
        return cls(d, level, [[field.zero] * n for _ in range(n)], field)

    @classmethod
    def matrix_unit(cls, d: int, u, v, field=QQ) -> "AFMatrix":
        """E_{u,v} for words u, v of equal length."""
        u, v = tuple(u), tuple(v)
        if len(u) != len(v):
            raise ValueError("matrix unit needs words of equal length")
        level = len(u)
        n = d**level
        rows = [[field.zero] * n for _ in range(n)]
        rows[word_rank(d, u)][word_rank(d, v)] = field.one
        return cls(d, level, rows, field)

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
        """Least-level representative: peel off identity tensor factors."""
        out = self
        while out.level > 0:
            d, n = out.d, out.d ** (out.level - 1)
            rows = out.entries
            zeros = (0,) * (n * (d - 1))
            for k, row in enumerate(rows):
                lo = k // n * n
                if row[:lo] + row[lo + n:] != zeros or row[lo:lo + n] != rows[k - lo][:n]:
                    return out
            # at d = 1 every level is the same 1x1 algebra: one step reaches level 0
            lower = 0 if d == 1 else out.level - 1
            out = AFMatrix._from_canonical(d, lower, tuple(row[:n] for row in rows[:n]), out.field)
        return out

    def _common(self, other: "AFMatrix"):
        if (self.d, self.field) != (other.d, other.field):
            raise ValueError("elements live in different limit algebras")
        r = max(self.level, other.level)
        return self.embed(r), other.embed(r)

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        a, b = self._common(other)
        return AFMatrix(a.d, a.level, dense_add(a.field, a.entries, b.entries), a.field).canonical()

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
        F, A, B, n = a.field, a.entries, b.entries, len(b.entries)
        if len(A) > n:  # a * diag(b, .., b): column block k is a's column block k times b
            live = [i for i, r in enumerate(A) if any(r)]  # a zero row of a stays zero
            rows = [[F.zero] * len(A) for _ in A]
            for k in range(0, len(A), n):
                for i, part in zip(live, dense_mul(F, [A[i][k:k + n] for i in live], B)):
                    rows[i][k:k + n] = part
        else:  # diag(a, .., a) * b: row block k is a times b's row block k
            rows = [row for k in range(0, n, len(A)) for row in dense_mul(F, A, B[k:k + len(A)])]
        rows = tuple(map(tuple, rows))
        return AFMatrix._from_canonical(a.d, max(a.level, b.level), rows, F).canonical()

    def scale(self, c) -> "AFMatrix":
        F, c = self.field, self.field.coerce(c)
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
        canonical, so x skips the constructor's coercion.
        """
        x = generalized_inverse(self.field, self.entries)
        return AFMatrix._from_canonical(self.d, self.level, tuple(map(tuple, x)), self.field)

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
        wp = word_unrank(self.d, p, level)
        wq = word_unrank(self.d, q, level)
        us = []
        vs = []
        for i in range(n):
            wi = word_unrank(self.d, i, level)
            us.append(AFMatrix.matrix_unit(self.d, wi, wp, F).scale(inv))
            vs.append(AFMatrix.matrix_unit(self.d, wq, wi, F))
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
        return cls(d, level, rows, field)


def _check_side(d: int, level: int, where: str = "") -> None:
    """ParseError, its message prefixed by `where`, if the side d**level is
    above MAX_SIDE; a huge level is refused before d**level is formed."""
    if d > 1 and (level >= MAX_SIDE.bit_length() or d**level > MAX_SIDE):
        raise ParseError(f"{where}a matrix at d={d}, level={level} has more than {MAX_SIDE} rows")


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
