"""Independent Alexander polynomial via the classical region matrix.

The matrix has one row per crossing and one column per region; each
crossing writes entries 1, -1, t, -t into its four corner regions.  The
minor drops the columns of the two regions at segment 1, and its
determinant is the Alexander polynomial up to a signed power of t.  Any
two regions that meet along a segment give the same class up to a signed
power of t; the tests check this by relabeling the arcs, which moves
segment 1 onto every arc in turn.

Corner convention (fixed here and validated by the cross-pipeline
agreement tests on the bundled diagrams rather than derived): with the
under-strand drawn upward, the four corners counterclockwise from the
incoming under end carry t, -t, 1, -1.

              ^ under out
          1   |   -t
       -------+------- over
         -1   |    t
              | under in

(Corner k sits between slots k and k+1; slot 0 is the incoming under
end, so corner 0 = t, corner 1 = -t, corner 2 = 1, corner 3 = -1.)

An entry a + b*t is the integer pair (a, b), and the determinant is one
integer.  With n rows, the matrix is taken at t = B = 2*4**n + 1 and
reduced by fraction-free (Bareiss) elimination over Z; the coefficients
of det(A + tB) are the balanced base-B digits of that value.  The
read-off is exact.  A coefficient of det(A + tB) is a signed sum, over
permutations, of products that take one coefficient of one entry from
each row, so its absolute value is at most perm(|A| + |B|), which is at
most the product of the row sums of |A| + |B|.  A row collects at most
four unit corner entries, so each row sum is at most 4 and every
coefficient lies within 4**n < B/2 of zero, where balanced base-B digits
are unique.
"""

from __future__ import annotations

from .diagram import LinkDiagram
from .poly import LaurentPoly

# entry written into the corner between slots k and k+1, as (a, b) for a + b*t
_CORNER_ENTRIES: tuple[tuple[int, int], ...] = ((0, 1), (0, -1), (1, 0), (-1, 0))


def build_matrix(diagram: LinkDiagram) -> list[list[tuple[int, int]]]:
    """Rows by crossings, columns by the regions other than the two at
    segment 1; entry (a, b) stands for a + b*t."""
    deleted = diagram.regions_at_segment(1)
    keep = tuple(r.id for r in diagram.regions if r.id not in deleted)
    col = {r: k for k, r in enumerate(keep)}
    rows = []
    for c in range(diagram.n):
        row = [(0, 0)] * len(keep)
        for corner in range(4):
            region = diagram.region_of_corner(c, corner)
            if region in col:
                a, b = row[col[region]]
                da, db = _CORNER_ENTRIES[corner]
                row[col[region]] = (a + da, b + db)
        rows.append(row)
    return rows


def _bareiss_det(rows: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination with row pivoting."""
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not rows[k][k]:
            pivot = next((r for r in range(k + 1, n) if rows[r][k]), None)
            if pivot is None:
                return 0
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        top = rows[k]
        for row in rows[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * top[k] - lead * top[j]) // prev
        prev = top[k]
    return sign * rows[n - 1][n - 1]


def _balanced_digits(value: int, base: int) -> list[int]:
    """Digits of ``value`` in base ``base`` (odd), lowest first, each in
    (-base/2, base/2)."""
    digits = []
    while value:
        digit = value % base
        if digit > base // 2:
            digit -= base
        digits.append(digit)
        value = (value - digit) // base
    return digits


def alexander_det(diagram: LinkDiagram) -> LaurentPoly:
    """Alexander polynomial from the region matrix, up to a signed power of t."""
    rows = build_matrix(diagram)
    base = 2 * 4 ** len(rows) + 1
    det = _bareiss_det([[a + b * base for a, b in row] for row in rows])
    return LaurentPoly.from_t_coefficients(_balanced_digits(det, base))
