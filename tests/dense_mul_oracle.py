"""`freeproj.linalg.dense_mul` as it was before rows with one nonzero entry
were read as a scaled row of B.  Kept verbatim as the oracle the product
must match exactly, value and type: every row of A with two or more
nonzero entries is still taken this way."""

from operator import mul

from freeproj.linalg import _integer_vector, _ratio


def dense_mul(field, A, B):
    """A*B on integer dot products; a zero row of A gives a zero row and a
    zero column of B a zero column, the int 0, with no product formed."""
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
    if p:
        return [[sum(map(mul, Ai, Bj)) % p for Bj in Bt] if any(Ai) else [0] * len(Bt) for Ai in A]
    cols = [_integer_vector(Bj) for Bj in Bt]
    integral = all(db == 1 for db, _ in cols)
    out = []
    for Ai in A:
        if not any(Ai):
            out.append([0] * len(cols))
            continue
        da, ai = _integer_vector(Ai)
        if da == 1 and integral:
            out.append([sum(map(mul, ai, bj)) for _, bj in cols])
        else:
            out.append([_ratio(sum(map(mul, ai, bj)), da * db) for db, bj in cols])
    return out
