"""ASCII and SVG pictures of shapes, tilings and partial tilings.

Drawing conventions for these objects: one dot per
monomino, two joined dots per domino, a thick polyline for the lattice path,
blank cells simply empty.  ASCII approximates a dot by ``o``, a domino by
``o=o`` and a blank cell by ``.``; rows print top down with the bottom row
last, matching first-quadrant orientation.
"""

from __future__ import annotations

from .shapes_tilings import PartialTiling, Shape, Tiling

CELL = 30  # SVG pixels per unit cell
ASCII = {"M": "o ", "D": "o=o ", ".": ". "}  # two characters per cell, by JSON token


def _token_rows(obj: Tiling | PartialTiling | Shape):
    """(shape, JSON token rows bottom first, path or None); a bare shape is all blank."""
    if isinstance(obj, Shape):
        return obj, [["."] * obj.cells(r) for r in range(1, obj.n_rows + 1)], None
    rows = obj.to_json_dict()["rows"]
    if isinstance(obj, Tiling):
        return obj.shape, rows, None
    return obj.shape(), rows, obj.path


def ascii_diagram(obj: Tiling | PartialTiling | Shape) -> str:
    """Rows top down; cells are two characters wide ('o=o ' joins a domino)."""
    shape, rows, path = _token_rows(obj)
    lines = []
    for r in range(shape.n_rows, 0, -1):
        cells = "".join(ASCII[tok] for tok in rows[r - 1])
        lines.append(f"{r:>2} |{'  ' * shape.inner[r - 1]}{cells.rstrip()}")
    if shape.n_rows == 0:
        lines.append("   (empty shape)")
    if path is not None:
        lines.append(f"path: {path.steps or '(empty)'} from {path.start}")
    return "\n".join(lines)


def svg_diagram(obj: Tiling | PartialTiling | Shape) -> str:
    """Faithful picture: unit grid, dots, domino joins, thick path."""
    shape, rows, path = _token_rows(obj)
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
    for r in range(1, shape.n_rows + 1):
        col = shape.inner[r - 1]
        for tok in rows[r - 1]:
            cx, cy = X(col + 0.5), Y(r - 0.5)
            if tok != ".":
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="4" fill="black"/>')
            if tok == "D":
                parts.append(
                    f'<line x1="{cx}" y1="{cy}" x2="{cx + CELL}" y2="{cy}" '
                    f'stroke="black" stroke-width="2"/>'
                )
                parts.append(f'<circle cx="{cx + CELL}" cy="{cy}" r="4" fill="black"/>')
            col += 2 if tok == "D" else 1
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
