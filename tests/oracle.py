"""An O(m^2) brute-force pair count, the oracle for the slot-count route."""


def brute_force_collision_pairs(x, h) -> int:
    """Count index pairs j < j' whose keys hash to the same slot, one pair at a time.

    Each key's slot is read from ``h.table``, or is the key itself under the
    identity hash; repeated keys in ``x`` collide with themselves.
    """
    slots = [int(key) if h.table is None else int(h.table[key]) for key in x.keys]
    m = len(slots)
    total = 0
    for j in range(m):
        sj = slots[j]
        for jp in range(j + 1, m):
            if sj == slots[jp]:
                total += 1
    return total
