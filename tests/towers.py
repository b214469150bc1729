"""Small test towers whose maps are given pair by pair."""
import proflim as pl


def pair_family(poset, dim, proj, inj, name=""):
    """A family whose rule stacks, for each listed level I, the identity at
    src itself, proj(I, src) below it and inj(I, src) above it."""
    def maps(src, levels):
        return pl.fanout_map([pl.identity_map(dim(I)) if I == src
                              else proj(I, src) if poset.leq(I, src) else inj(I, src)
                              for I in levels])

    return pl.ProfiniteFamily(poset, dim, maps, name=name)


def cover_family(poset, dim, stored, name=""):
    """A family storing maps only on listed pairs, stored[(J, K)] = (proj,
    inj) for J < K, whose rule composes them along the shortest chain of
    stored pairs from K down to J, the first one in stored order."""
    def chain(J, K):
        paths, seen = [[K]], {K}
        while paths:
            path = paths.pop(0)
            for lo, hi in stored:
                if hi == path[-1] and poset.leq(J, lo):
                    if lo == J:
                        return path + [lo]
                    if lo not in seen:
                        seen.add(lo)
                        paths.append(path + [lo])
        raise pl.FamilyMismatch(f"no stored chain from {K!r} down to {J!r}")

    def transport(src, dst):
        if src == dst:
            return pl.identity_map(dim(src))
        down = poset.leq(dst, src)
        steps = chain(dst, src) if down else chain(src, dst)[::-1]
        mp = pl.identity_map(dim(src))
        for a, b in zip(steps, steps[1:]):
            mp = pl.compose(stored[(b, a)][0] if down else stored[(a, b)][1], mp)
        return mp

    return pl.ProfiniteFamily(poset, dim,
                              lambda src, levels: pl.fanout_map([transport(src, I)
                                                                 for I in levels]),
                              name=name)
