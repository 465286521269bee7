"""Pattern presentation: a line-oriented text format and grayscale PGM images.

Both writers take rows and run no Python per cell. Each row is padded, in its
light-cone window, into one reused final box (cones nest, so a row overwrites
all its predecessor wrote): states, 0 outside, in the smallest unsigned type
holding n-1 for text; uint8 pixels, white outside, via ``engine.per_state`` for
PGM. Text peels digits off with % 10 and // 10, a keep-mask drops leading zeros,
and a row is a line in 1D or a block in 2D, blocks joined by an empty line; the
reader parses the whole box and crops each row. PGM: one image in 1D, a frame per row in 2D."""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Iterator
from itertools import chain, starmap
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .engine import INT64_MAX, Pattern, per_state
from .rule import TransitionRule, rule_radius
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


def _padded(rule: TransitionRule, t_max: int, fill: int, dtype, rows: Iterable[np.ndarray]):
    """Each row padded into one final box [-reach, reach]^D, reused; allocated at the call."""
    radius, dimension = rule_radius(rule), rule.dimension
    reach = radius * t_max
    box = np.full((2 * reach + 1,) * dimension, fill, dtype=dtype)

    def pad(t: int, row: np.ndarray) -> np.ndarray:
        box[_cone(t, radius, reach, dimension)] = row
        return box

    return starmap(pad, enumerate(rows))


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


def rows_to_text(n: int, seed: int, rule: TransitionRule, t_max: int, rows) -> Iterator[str]:
    """Pattern text (D <= 2): the header, then each row on the final box, cells in row-major
    order, as a line in 1D and a block in 2D (``_layout``). The box is allocated at the call."""
    check_dimension(rule.dimension, "text")
    values = (rule.dimension, n, seed, t_max, rule_radius(rule))
    header = " ".join([TEXT_MAGIC] + [f"{k}={v}" for k, v in zip(HEADER_FIELDS, values)])
    boxes = _padded(rule, t_max, 0, np.min_scalar_type(n - 1), rows)
    gap = "\n" if rule.dimension == 2 else ""
    return chain([header + "\n"], (
        gap * (t > 0) + _text_lines(box.reshape(-1, box.shape[-1]), n).tobytes().decode("ascii")
        for t, box in enumerate(boxes)))


def pattern_to_text(pattern: Pattern) -> str:
    """Serialize a pattern (D <= 2): header plus zero-padded, centered rows."""
    return "".join(rows_to_text(pattern.modulus, pattern.seed, pattern.rule, pattern.t_max,
                                pattern.cells))


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


def write_pgm(path: Path, width: int, height: int, lines: Iterable[np.ndarray]) -> None:
    """Binary PGM (P5), maxval 255, no comment lines: the header, then each pixel line."""
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.writelines(np.ascontiguousarray(line, dtype=np.uint8) for line in lines)


def render_rows(n: int, rule: TransitionRule, t_max: int, rows, path) -> list[Path]:
    """Write rows 0..t_max as grayscale PGM image(s) and return the paths.

    One dimension gives a single image with time increasing downward and
    space across. Two dimensions give one image per timestep, all padded to the
    final box (allocated before any file opens), named ``<stem>_t<zero-padded t>.pgm``.
    """
    check_dimension(rule.dimension, "pgm")
    path = Path(path)
    pixels = per_state(n, rule, t_max, rows, lambda s: state_pixels(s, n))
    boxes = _padded(rule, t_max, 255, np.uint8, pixels)
    width = 2 * rule_radius(rule) * t_max + 1
    if rule.dimension == 1:
        write_pgm(path, width, t_max + 1, boxes)
        return [path]
    digits = max(3, len(str(t_max)))
    suffix = path.suffix or ".pgm"
    written = [path.with_name(f"{path.stem}_t{t:0{digits}d}{suffix}") for t in range(t_max + 1)]
    for frame_path, frame in zip(written, boxes):
        write_pgm(frame_path, width, width, frame)
    return written


def render_image(pattern: Pattern, path) -> list[Path]:
    """Write the pattern as grayscale PGM image(s), as ``render_rows``, and return the paths."""
    return render_rows(pattern.modulus, pattern.rule, pattern.t_max, pattern.cells, path)
