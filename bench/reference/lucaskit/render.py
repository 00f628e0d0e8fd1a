"""ASCII and SVG pictures of shapes, tilings and partial tilings.

Drawing conventions for these objects: one dot per
monomino, two joined dots per domino, a thick polyline for the lattice path,
blank cells simply empty.  ASCII approximates a dot by ``o``, a domino by
``o=o`` and a blank cell by ``.``; rows print top down with the bottom row
last, matching first-quadrant orientation.
"""

from __future__ import annotations

from .shapes_tilings import MONO, PartialTiling, Shape, Tiling

CELL = 30  # SVG pixels per unit cell


def _cell_states(shape: Shape, rows_runs) -> list[list[str]]:
    """Per cell: '.', 'o' (monomino), '<' or '>' (domino halves)."""
    grid = []
    for r in range(1, shape.n_rows + 1):
        row = ["."] * shape.cells(r)
        for start, tiles in rows_runs[r - 1]:
            col = start
            for tile in tiles:
                if tile == MONO:
                    row[col - 1] = "o"
                    col += 1
                else:
                    row[col - 1] = "<"
                    row[col] = ">"
                    col += 2
        grid.append(row)
    return grid


def _runs_of(obj: Tiling | PartialTiling):
    if isinstance(obj, Tiling):
        return obj.shape, [((1, tiles),) if tiles else () for tiles in obj.rows], None
    return obj.shape(), obj.fixed, obj.path


def ascii_diagram(obj: Tiling | PartialTiling | Shape) -> str:
    """Rows top down; cells are two characters wide ('o=o ' joins a domino)."""
    if isinstance(obj, Shape):
        shape, runs, path = obj, [()] * obj.n_rows, None
    else:
        shape, runs, path = _runs_of(obj)
    grid = _cell_states(shape, runs)
    lines = []
    for r in range(shape.n_rows, 0, -1):
        cells = []
        inner_pad = "  " * shape.inner[r - 1]
        for state in grid[r - 1]:
            if state == "o":
                cells.append("o ")
            elif state == "<":
                cells.append("o=")
            elif state == ">":
                cells.append("o ")
            else:
                cells.append(". ")
        lines.append(f"{r:>2} |{inner_pad}{''.join(cells).rstrip()}")
    if shape.n_rows == 0:
        lines.append("   (empty shape)")
    if path is not None:
        lines.append(f"path: {path.steps or '(empty)'} from {path.start}")
    return "\n".join(lines)


def svg_diagram(obj: Tiling | PartialTiling | Shape) -> str:
    """Faithful picture: unit grid, dots, domino joins, thick path."""
    if isinstance(obj, Shape):
        shape, runs, path = obj, [()] * obj.n_rows, None
    else:
        shape, runs, path = _runs_of(obj)
    height = shape.n_rows + (1 if path is not None else 0)
    width = max(shape.outer[0] if shape.outer else 1, 1)
    pad = CELL
    W = width * CELL + 2 * pad
    H = (height + 1) * CELL + 2 * pad

    def X(x: float) -> float:
        return pad + x * CELL

    def Y(y: float) -> float:
        return H - pad - y * CELL

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
    ]
    # Grid: row rectangles cell by cell.
    for r in range(1, shape.n_rows + 1):
        for j in range(shape.inner[r - 1] + 1, shape.outer[r - 1] + 1):
            parts.append(
                f'<rect x="{X(j - 1)}" y="{Y(r)}" width="{CELL}" height="{CELL}" '
                f'fill="none" stroke="#888" stroke-width="1"/>'
            )
    grid = _cell_states(shape, runs)
    for r in range(1, shape.n_rows + 1):
        offset = shape.inner[r - 1]
        for i, state in enumerate(grid[r - 1]):
            cx, cy = X(offset + i + 0.5), Y(r - 0.5)
            if state == "o":
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="4" fill="black"/>')
            elif state == "<":
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="4" fill="black"/>')
                parts.append(
                    f'<line x1="{cx}" y1="{cy}" x2="{cx + CELL}" y2="{cy}" '
                    f'stroke="black" stroke-width="2"/>'
                )
                parts.append(f'<circle cx="{cx + CELL}" cy="{cy}" r="4" fill="black"/>')
    if path is not None:
        x, y = path.start
        points = [f"{X(x)},{Y(y)}"]
        for step in path.steps:
            if step == "W":
                x -= 1
            else:
                y += 1
            points.append(f"{X(x)},{Y(y)}")
        parts.append(
            f'<polyline points="{" ".join(points)}" fill="none" '
            f'stroke="black" stroke-width="4"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
