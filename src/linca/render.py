"""Pattern presentation: a line-oriented text format and grayscale PGM images.

Both writers work on whole arrays, with no Python per cell. One painter
stacks every row, in its light-cone window, into the final box: states (0
outside) for text, in the smallest unsigned type holding n-1, or uint8
pixels (white outside) for PGM, painted through the state table of
``engine.per_state``. Text peels decimal digits off with % 10 and // 10
into bytes, a keep-mask drops leading zeros, and ``_layout`` cuts the box
into blocks joined by an empty line; the reader checks a stream against
that layout, parses it into the same box and crops each row through its
window. PGM is one image in 1D and one frame per row in 2D."""

from __future__ import annotations

import math
import re
from collections.abc import Iterable
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .engine import INT64_MAX, Pattern, per_state
from .rule import rule_radius
from .zmod import check_modulus

TEXT_MAGIC = "linca-pattern v1"
HEADER_FIELDS = ("dim", "n", "seed", "tmax", "radius")
CELL_RANGE = "cell values must be reduced to [0, n)"
_SIGNED_DIGITS = re.compile(r"[+-]?[0-9]+")
FORMAT_LIMITS = {"text": "pattern text format supports D <= 2", "pgm": "render supports D <= 2"}


def check_dimension(dimension: int, fmt: str) -> None:
    """Refuse a dimension the writer of ``fmt`` ("text" or "pgm") cannot lay out."""
    if not 1 <= dimension <= 2:
        raise ValueError(FORMAT_LIMITS[fmt])


def _cone(t: int, radius: int, reach: int, dimension: int) -> tuple[slice, ...]:
    """Row t's light cone [-radius*t, radius*t]^D as slices of the final box [-reach, reach]^D."""
    extent = radius * t
    return (slice(reach - extent, reach + extent + 1),) * dimension


def _paint(pattern: Pattern, fill: int, dtype, rows: Iterable[np.ndarray]) -> np.ndarray:
    """Rows stacked on the final box, (T+1,) + (W,)*D: row t in its cone, fill elsewhere."""
    radius = rule_radius(pattern.rule)
    reach = radius * pattern.t_max
    box = np.full((pattern.t_max + 1,) + (2 * reach + 1,) * pattern.dimension, fill, dtype=dtype)
    for t, row in enumerate(rows):
        box[(t,) + _cone(t, radius, reach, pattern.dimension)] = row
    return box


def _layout(box_shape: tuple[int, ...]) -> tuple[int, int, int]:
    """Text (blocks, lines per block, cells per line) of a box: 1 block in 1D, one per row in 2D."""
    return (math.prod(box_shape[:-2]),) + box_shape[-2:]


def _integer(token: str, name: str, out_of_range: str) -> int:
    """int(token) within int64, else refused; a message echoes at most 20 characters."""
    if len(token) > 20 and _SIGNED_DIGITS.fullmatch(token):  # int() stops at 4300 digits
        raise ValueError(out_of_range)
    try:
        value = int(token)
    except ValueError:
        raise ValueError(f"{name} is not an integer: {token[:20]!r}") from None
    if abs(value) > INT64_MAX:
        raise ValueError(out_of_range)
    return value


def _text_lines(lines: np.ndarray, n: int) -> np.ndarray:
    """ASCII of one text line per row of a 2-D grid of states in [0, n).

    Each line is the row's cells in decimal, separated by spaces and ended
    by a newline, returned as one flat uint8 array. Every cell is written
    with the digit count of n-1 plus one separator byte; a keep-mask then
    drops the leading zeros of shorter numbers. The digits are peeled off
    in the smallest unsigned type that holds n-1.
    """
    width = len(str(n - 1))
    chars = np.empty(lines.shape + (width + 1,), dtype=np.uint8)
    rest = lines.astype(np.min_scalar_type(n - 1))
    for k in range(width - 1, -1, -1):
        chars[..., k] = rest % 10 + ord("0")
        rest //= 10
    chars[..., width] = ord(" ")
    chars[:, -1, width] = ord("\n")
    keep = np.ones(chars.shape, dtype=bool)
    for k in range(width - 1):  # the units digit is always kept, so 0 prints as "0"
        keep[..., k] = lines >= 10 ** (width - 1 - k)
    return chars[keep]


def pattern_to_text(pattern: Pattern) -> str:
    """Serialize a pattern (D <= 2): header plus zero-padded, centered rows.

    Every row is padded to the final box [-radius*t_max, radius*t_max]^D,
    which is written in the blocks of ``_layout``, cells in row-major order.
    """
    check_dimension(pattern.dimension, "text")
    values = (pattern.dimension, pattern.modulus, pattern.seed, pattern.t_max,
              rule_radius(pattern.rule))
    header = " ".join([TEXT_MAGIC] + [f"{k}={v}" for k, v in zip(HEADER_FIELDS, values)])
    grid = _paint(pattern, 0, np.min_scalar_type(pattern.modulus - 1), pattern.cells)
    blocks = grid.reshape(_layout(grid.shape))
    body = b"\n".join(_text_lines(block, pattern.modulus).tobytes() for block in blocks)
    return header + "\n" + body.decode("ascii")


class ParsedPattern(NamedTuple):
    """Header fields and rows of a pattern text stream, laid out as ``Pattern.cells``."""

    modulus: int
    seed: int
    t_max: int
    radius: int
    dimension: int
    cells: tuple[np.ndarray, ...]


def parse_pattern_text(text: str) -> ParsedPattern:
    """Inverse of pattern_to_text; recovers the pattern's light-cone rows exactly.

    The body must hold exactly the blocks, lines and cells of ``_layout``,
    counted before anything sized by the header is built. Row t is cropped
    to [-radius*t, radius*t]^D, as ``Pattern.cells[t]``. Also refused: a
    header field without ``=``, a header value or cell that is not an
    integer, a modulus out of range, a nonzero cell outside its row's cone,
    a cell outside [0, n), or a row 0 other than the header's seed.
    """
    lines = text.splitlines()
    if not lines or not lines[0].startswith(TEXT_MAGIC + " "):
        raise ValueError(f"not a {TEXT_MAGIC} stream")
    parts = [part.partition("=") for part in lines[0][len(TEXT_MAGIC):].split()]
    for key, equals, _ in parts:
        if not equals:
            raise ValueError(f"pattern header field {key} lacks '='")
    fields = {key: value for key, _, value in parts}
    missing = [key for key in HEADER_FIELDS if key not in fields]
    if missing:
        raise ValueError(f"pattern header lacks {', '.join(missing)}")
    unknown = [key for key in fields if key not in HEADER_FIELDS]
    if unknown:
        raise ValueError(f"pattern header has unknown field {', '.join(unknown)}")
    dimension, n, seed, t_max, radius = (
        _integer(fields[key], f"pattern header {key}", f"pattern header {key} is out of range")
        for key in HEADER_FIELDS)
    if t_max < 0 or radius < 0:
        raise ValueError(f"pattern header needs tmax, radius >= 0, got {t_max}, {radius}")
    if not 1 <= seed < n:
        raise ValueError(f"pattern header needs seed in [1, n), got seed={seed} n={n}")
    check_modulus(n)
    check_dimension(dimension, "text")
    reach = radius * t_max
    shape = (t_max + 1,) + (2 * reach + 1,) * dimension
    count, height, width = _layout(shape)
    blocks = [[ln.split() for ln in b.split("\n")] for b in "\n".join(lines[1:]).split("\n\n")]
    if len(blocks) != count:
        raise ValueError(f"expected {count} blank-line-separated blocks, found {len(blocks)}")
    for i, block in enumerate(blocks):
        if len(block) != height or any(len(cells) != width for cells in block):
            raise ValueError(f"block {i} is not {height} lines of {width} cells")
    values = [_integer(v, "cell", CELL_RANGE) for b in blocks for line in b for v in line]
    rows = []
    for t, grid in enumerate(np.array(values, dtype=np.int64).reshape(shape)):
        cone = grid[_cone(t, radius, reach, dimension)]
        if np.count_nonzero(cone) != np.count_nonzero(grid):
            raise ValueError(f"row {t} has nonzero cells outside its light cone")
        if cone.min() < 0 or cone.max() >= n:
            raise ValueError(CELL_RANGE)
        rows.append(cone.copy())
    if rows[0].flat[0] != seed:
        raise ValueError(f"row 0 holds {rows[0].flat[0]} at the origin, header says seed={seed}")
    return ParsedPattern(n, seed, t_max, radius, dimension, tuple(rows))


def state_pixels(states: np.ndarray, n: int) -> np.ndarray:
    """Grayscale mapping: 0 is white, positive states darken with value."""
    shade = 255 - (states * 255) // (n - 1)
    return np.where(states == 0, 255, shade).astype(np.uint8)


def write_pgm(path: Path, pixels: np.ndarray) -> None:
    """Binary PGM (P5), maxval 255, no comment lines."""
    height, width = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(pixels, dtype=np.uint8))


def render_image(pattern: Pattern, path) -> list[Path]:
    """Write the pattern as grayscale PGM image(s) and return the paths.

    One dimension gives a single image with time increasing downward and
    space across. Two dimensions give one image per timestep, all padded to
    the final box, named ``<stem>_t<zero-padded t>.pgm``.
    """
    check_dimension(pattern.dimension, "pgm")
    path = Path(path)
    n = pattern.modulus
    pixels = _paint(pattern, 255, np.uint8, per_state(pattern, lambda s: state_pixels(s, n)))
    if pattern.dimension == 1:
        write_pgm(path, pixels)
        return [path]
    digits = max(3, len(str(pattern.t_max)))
    suffix = path.suffix or ".pgm"
    written = []
    for t, frame in enumerate(pixels):
        frame_path = path.with_name(f"{path.stem}_t{t:0{digits}d}{suffix}")
        write_pgm(frame_path, frame)
        written.append(frame_path)
    return written
