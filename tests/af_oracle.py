"""The `AFMatrix.embed` and `AFMatrix.canonical` that tuple rows replaced,
and the product that embedded both operands.

`embed` and `canonical` fill a dense table entry by entry and test the block
pattern with a nested flag loop, building each matrix through the coercing
constructor.  `mul` embeds both operands to the higher of their given
levels and takes one `dense_mul` at that size.  Kept verbatim, as functions
of the matrices, as the oracles the faster versions must match exactly:
same level, same entries, same value types.
"""

from freeproj.af_s import AFMatrix
from freeproj.errors import LevelDecrease
from freeproj.linalg import dense_mul


def embed(self, level: int) -> "AFMatrix":
    """The same element at a higher level: iterated identity-tensor."""
    if level < self.level:
        raise LevelDecrease(f"cannot embed level {self.level} down to {level}")
    out = self
    while out.level < level:
        n = out.d**out.level
        z = out.field.zero
        size = n * out.d
        rows = [[z] * size for _ in range(size)]
        for blk in range(out.d):
            off = blk * n
            for i in range(n):
                row = rows[off + i]
                src = out.entries[i]
                for j in range(n):
                    row[off + j] = src[j]
        out = AFMatrix(out.d, out.level + 1, rows, out.field)
    return out


def canonical(self) -> "AFMatrix":
    """Least-level representative: peel off identity tensor factors."""
    out = self
    while out.level > 0:
        d, n = out.d, out.d ** (out.level - 1)
        ok = True
        for bi in range(d):
            for bj in range(d):
                block_should_vanish = bi != bj
                for i in range(n):
                    for j in range(n):
                        v = out.entries[bi * n + i][bj * n + j]
                        if block_should_vanish:
                            if v != 0:
                                ok = False
                                break
                        elif v != out.entries[i][j]:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            return out
        out = AFMatrix(d, out.level - 1, [row[:n] for row in out.entries[:n]], out.field)
    return out


def mul(self, other) -> "AFMatrix":
    """The product at the common level: embed both, multiply, canonical form."""
    if (self.d, self.field) != (other.d, other.field):
        raise ValueError("elements live in different limit algebras")
    r = max(self.level, other.level)
    a, b = self.embed(r), other.embed(r)
    rows = tuple(map(tuple, dense_mul(a.field, a.entries, b.entries)))
    return AFMatrix._from_canonical(a.d, a.level, rows, a.field).canonical()
