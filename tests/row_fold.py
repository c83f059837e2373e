"""The tuple-row fold, the tests' oracle for the packed kernel.

Words ran on these tuple rows before `action.apply_word` moved onto the
packed rows of `action._packing`: each letter builds its new row column
by column from the rows of its one or two neighbours.  It shares no
arithmetic with the packed `action._letter`, so the tests check the
packed fold, the orbit search and the descent against it.
"""

from todamass.action import _letters, _neighbours


def _reflect(rows, i, nbrs, lift):
    """R_{i+1} on rows: row_i <- 2 w_i - row_i - sum_{t != i} k_it row_t,
    where ``lift`` is the sparse row of 2 w_i.  A generator has two
    neighbours, or one at an end of Ct, so the new row is one pass."""
    nb = nbrs[i]
    if len(nb) == 2:
        (t, k), (u, l) = nb
        row = [-a - k * b - l * c
               for a, b, c in zip(rows[i], rows[t], rows[u])]
    else:
        (t, k), = nb
        row = [-a - k * b for a, b in zip(rows[i], rows[t])]
    for p, c in lift:
        row[p] += c
    return rows[:i] + (tuple(row),) + rows[i + 1:]


def _fold(w, rows, spec, lifts):
    """The rows after the word's letters, applied right to left."""
    nbrs = _neighbours(spec)
    for i in _letters(w, spec):
        rows = _reflect(rows, i, nbrs, lifts[i])
    return rows
