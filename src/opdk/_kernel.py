"""Dense arithmetic over Z/p, which no library code calls.

Matrices are lists of row lists with entries already reduced into [0, p).
``exactlin.rref`` runs one sparse elimination over Q and Z/p, so neither
``rref_mod`` nor ``matmul_mod`` has a caller in the library, and
``BACKEND`` names no choice.  The file stays only because the benchmark
harness imports it: it traces ``rref_mod`` and ``matmul_mod`` as its
``kernel`` layer and records ``BACKEND`` with every result, until the
harness drops that layer (ROADMAP, direction 1).  Entries are Python
integers, so any modulus is exact.
"""

BACKEND = "python"


def matmul_mod(a, b, p):
    """Product of dense matrices over Z/p.

    >>> matmul_mod([[1, 2], [3, 4]], [[0, 1], [1, 0]], 5)
    [[2, 1], [4, 3]]
    >>> matmul_mod([[1, 2]], [[1, 0]], 5)
    Traceback (most recent call last):
        ...
    ValueError: matmul_mod: 1x2 times 1x2
    """
    n = len(a)
    k = len(a[0]) if n else 0
    m = len(b[0]) if b else 0
    if n and len(b) != k:
        raise ValueError(f"matmul_mod: {n}x{k} times {len(b)}x{m}")
    out = []
    for i in range(n):
        ai = a[i]
        row = [0] * m
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(m):
                    row[j] = (row[j] + x * bt[j]) % p
        out.append(row)
    return out


def rref_mod(a, p):
    """Reduced row echelon form over Z/p with a recorded transform.

    Returns (r, t, pivots) with r = t*a, t invertible, pivots the pivot
    column indices in order.

    >>> r, t, piv = rref_mod([[2, 4], [1, 2]], 5)
    >>> r, piv
    ([[1, 2], [0, 0]], [0])
    """
    n = len(a)
    m = len(a[0]) if n else 0
    r = [row[:] for row in a]
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    pivots = []
    row = 0
    for col in range(m):
        if row >= n:
            break
        piv = -1
        for i in range(row, n):
            if r[i][col]:
                piv = i
                break
        if piv < 0:
            continue
        r[row], r[piv] = r[piv], r[row]
        t[row], t[piv] = t[piv], t[row]
        inv = pow(r[row][col], p - 2, p)
        r[row] = [(x * inv) % p for x in r[row]]
        t[row] = [(x * inv) % p for x in t[row]]
        for i in range(n):
            if i != row and r[i][col]:
                c = r[i][col]
                ri, rr = r[i], r[row]
                ti, tr = t[i], t[row]
                for j in range(m):
                    ri[j] = (ri[j] - c * rr[j]) % p
                for j in range(n):
                    ti[j] = (ti[j] - c * tr[j]) % p
        pivots.append(col)
        row += 1
    return r, t, pivots
