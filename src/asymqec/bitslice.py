"""Weight counts of full characteristic-2 walks, 2^s words per big-int operation.

Bit t of the column of bit b of the packed word is bit b of the outer word
plus combination t of the s low rows, so one XOR with all ones adds an outer
word to every lane. Full adders sum the n coordinates' columns (the OR of
their m planes) into bit-planes of the lane weights (Harley-Seal; Mula, Kurz
and Lemire 2018), read by a prefix tree of ANDs and one `bit_count` each.
"""

from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence


def lanes(count: int, width: int, value: int) -> int:
    """`value` (below 2^width) in each of the low `count` lanes of `width` bits."""
    copies = 1
    while copies < count:
        value, copies = value | value << copies * width, 2 * copies
    return value & ((1 << count * width) - 1)


def walk(starts: Iterable[int], low: Sequence[int], outer: Callable[[], Iterator[int]],
         n: int, m: int, counts: list[int]) -> int:
    """Add to `counts` the weight of each start plus each GF(2) combination of `low`
    and each step of `outer`, words being m planes of n bits; returns the words walked."""
    s, width, walked = len(low), m * n, 0
    full, ones = (1 << (1 << s)) - 1, lanes(width, 8, 1)  # ones: bit 0 of each byte
    cols = [0] * width  # cols[b]: XOR of P_i (bit t iff bit i of t) over low rows with bit b
    for first in range(0, s, 4):  # per four low rows, one lookup in a table of subset XORs
        table, subset = [0], 0
        for i in range(first, min(first + 4, s)):
            half = 1 << i
            pattern = lanes(1 << s - 1 - i, 2 * half, ((1 << half) - 1) << half)
            table += [t ^ pattern for t in table]
            subset |= (int.from_bytes(f"{low[i]:0{width}b}".encode(), "big") & ones) << i - first
        for b, x in enumerate(subset.to_bytes(width, "little")):
            if x:
                cols[b] ^= table[x]
    for word in starts:
        for row in outer():
            word ^= row
            walked += 1 << s
            # the flipped columns of plane 0, ORed with those of the other planes
            bits = f"{word:0{width}b}"[::-1]
            nonzero = (c ^ full if bit == "1" else c for c, bit in zip(cols[:n], bits))
            for c in range(n, width, n):
                nonzero = [x | (y ^ full if bit == "1" else y)
                           for x, y, bit in zip(nonzero, cols[c:c + n], bits[c:c + n])]
            # bit k of each lane's weight: two columns per full adder into planes[0]
            planes = [0] * n.bit_length()
            pairs = chain(nonzero, (0,))
            for a, b in zip(pairs, pairs):
                t = planes[0] ^ a
                planes[0], x, k = t ^ b, (planes[0] & a) | (t & b), 1
                while x:
                    planes[k], x = planes[k] ^ x, planes[k] & x
                    k += 1
            level = [full]  # level[v]: the lanes whose weight has the high bits v
            for plane in reversed(planes):
                level = [part for y in level for hi in (y & plane,) for part in (y ^ hi, hi)]
            counts[:] = [c + y.bit_count() for c, y in zip(counts, level)]
    return walked
