"""`freeproj.linalg.dense_mul` as it was before rows with one nonzero entry
were read as a scaled row of B, on its own Fraction arithmetic: the oracle
the product must match exactly, value and type.  Every row of A with two or
more nonzero entries is still taken this way."""

from fractions import Fraction
from operator import mul


def dense_mul(field, A, B):
    """A*B on dot products; a zero row of A gives a zero row and a zero
    column of B a zero column, the int 0, with no product formed.  Over QQ
    an entry is an int when it is integral and a Fraction otherwise."""
    Bt = list(zip(*B))
    live = [j for j, Bj in enumerate(Bt) if any(Bj)]
    if len(live) < len(Bt):
        # the product on B's nonzero columns, spread back with zeros between
        out = [[0] * len(Bt) for _ in A]
        for row, part in zip(out, dense_mul(field, A, [[r[j] for j in live] for r in B])):
            for j, v in zip(live, part):
                row[j] = v
        return out
    p = field.characteristic
    integral = p or all(type(v) is int for rows in (A, B) for row in rows for v in row)
    out = []
    for Ai in A:
        if not any(Ai):
            out.append([0] * len(Bt))
        elif integral:
            out.append([sum(map(mul, Ai, Bj)) % p if p else sum(map(mul, Ai, Bj)) for Bj in Bt])
        else:
            ai = list(map(Fraction, Ai))
            out.append([_value(sum(map(mul, ai, Bj), Fraction(0))) for Bj in Bt])
    return out


def _value(x: Fraction):
    """x as an int when it is integral, else x."""
    return x.numerator if x.denominator == 1 else x
