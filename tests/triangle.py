"""Flat indexing of W's row-major upper triangle, for building and reading
hand-made side information in the tests."""


def pair_index(u: int, v: int, n: int) -> int:
    """Flat index of the unordered pair {u, v} in row-major upper-tri order."""
    if u == v:
        raise ValueError("no diagonal entries")
    if u > v:
        u, v = v, u
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def value_index(side, u: int, v: int) -> int:
    """The side-information value index of the pair {u, v} in ``side``, a
    ``SideInfo``, read from its flat triangle."""
    return int(side.tri[pair_index(u, v, side.n)])
