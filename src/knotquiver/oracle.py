"""Independent Alexander polynomial via the classical region matrix.

The matrix has one row per crossing and one column per region; each
crossing writes entries 1, -1, t, -t into its four corner regions and the
determinant of the minor obtained by deleting two adjacent columns is the
Alexander polynomial up to a signed power of t.

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
The determinant is evaluated exactly over Z[s, 1/s] by fraction-free
(Bareiss) elimination.
"""

from __future__ import annotations

from .diagram import DiagramError, LinkDiagram
from .poly import LaurentPoly, exact_div

# entry written into the corner between slots k and k+1, as (coef, s-exponent)
_CORNER_ENTRIES: tuple[tuple[int, int], ...] = ((1, 2), (-1, 2), (1, 0), (-1, 0))


def build_matrix(diagram: LinkDiagram, deleted: tuple[int, int]) -> list[list[LaurentPoly]]:
    """Rows by crossings, columns by the regions other than the two ``deleted``,
    which must be adjacent along a segment."""
    r1, r2 = deleted
    shared = any(
        {diagram.left_region(j), diagram.right_region(j)} == {r1, r2}
        for j in diagram.segment_ids()
    )
    if not shared:
        raise DiagramError(f"regions {r1} and {r2} are not adjacent along a segment")
    keep = tuple(r.id for r in diagram.regions if r.id not in (r1, r2))
    col = {r: k for k, r in enumerate(keep)}
    rows = []
    for c in range(diagram.n):
        row = [LaurentPoly.zero() for _ in keep]
        for corner in range(4):
            region = diagram.region_of_corner(c, corner)
            if region in col:
                coef, exp = _CORNER_ENTRIES[corner]
                row[col[region]] = row[col[region]] + LaurentPoly.s_power(exp, coef)
        rows.append(row)
    return rows


def _bareiss_det(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Exact determinant by fraction-free elimination with row pivoting."""
    n = len(rows)
    if n == 0:
        return LaurentPoly.one()
    sign = 1
    prev = LaurentPoly.one()
    for k in range(n - 1):
        if rows[k][k].is_zero:
            pivot = next((r for r in range(k + 1, n) if not rows[r][k].is_zero), None)
            if pivot is None:
                return LaurentPoly.zero()
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]
                rows[i][j] = exact_div(num, prev)
            rows[i][k] = LaurentPoly.zero()
        prev = rows[k][k]
    det = rows[n - 1][n - 1]
    return -det if sign < 0 else det


def alexander_det(
    diagram: LinkDiagram, deleted: tuple[int, int] | None = None
) -> LaurentPoly:
    """Alexander polynomial from the region matrix, up to a signed power of t.

    ``deleted`` must name two regions sharing a segment; by default the two
    regions at segment 1 are removed.
    """
    if deleted is None:
        deleted = diagram.regions_at_segment(1)
    return _bareiss_det(build_matrix(diagram, deleted))
