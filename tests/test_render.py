import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linca.engine import evolve
from linca.render import (
    HEADER_FIELDS,
    TEXT_MAGIC,
    parse_pattern_text,
    pattern_to_text,
    render_image,
    state_pixels,
)
from linca.rule import parse_rule, rule_radius
from linca.zmod import MAX_MODULUS


def test_render_text_mod2(rule90):
    assert pattern_to_text(evolve(2, rule90, 1, 2)) == (
        "linca-pattern v1 dim=1 n=2 seed=1 tmax=2 radius=1\n"
        "0 0 1 0 0\n"
        "0 1 0 1 0\n"
        "1 0 0 0 1\n"
    )


def test_render_text_single_row(rule90):
    assert pattern_to_text(evolve(2, rule90, 1, 0)) == (
        "linca-pattern v1 dim=1 n=2 seed=1 tmax=0 radius=1\n1\n"
    )


def test_render_text_mod3_seed2(rule90):
    assert pattern_to_text(evolve(3, rule90, 2, 1)) == (
        "linca-pattern v1 dim=1 n=3 seed=2 tmax=1 radius=1\n"
        "0 2 0\n"
        "2 0 2\n"
    )


def test_text_round_trip_one_dimensional():
    for text, n, a, t_max in (
        ("1@(-1);1@(1)", 5, 3, 7),
        ("1@(-2);1@(2)", 6, 4, 5),
        ("1@(0)", 4, 2, 3),
    ):
        pattern = evolve(n, parse_rule(text), a, t_max)
        parsed = parse_pattern_text(pattern_to_text(pattern))
        assert parsed.modulus == n and parsed.seed == a and parsed.t_max == t_max
        assert len(parsed.cells) == len(pattern.cells)
        for original, recovered in zip(pattern.cells, parsed.cells):
            assert original.shape == recovered.shape
            assert np.array_equal(original, recovered)


def test_text_round_trip_two_dimensional(rule_2d):
    pattern = evolve(3, rule_2d, 2, 4)
    parsed = parse_pattern_text(pattern_to_text(pattern))
    for original, recovered in zip(pattern.cells, parsed.cells):
        assert original.shape == recovered.shape
        assert np.array_equal(original, recovered)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_pattern_text("not a header\n1 2 3\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("linca-pattern v1 dim=1 n=2 seed=1 radius=1\n1\n", "lacks tmax"),
        ("linca-pattern v1 dim=1 n=2 seed=1 tmax=-1 radius=1\n", "tmax, radius >= 0"),
        ("linca-pattern v1 dim=1 n=2 seed=1 tmax=0 radius=-1\n1\n", "tmax, radius >= 0"),
        ("linca-pattern v1 dim=1 n=3 seed=1 tmax=0 radius=1\n2\n", "row 0 holds 2"),
        ("linca-pattern v1 dim=1 n=2 seed=1 tmax=1 radius=1\n1 0 1\n1 0 1\n",
         "row 0 has nonzero cells outside its light cone"),
        ("linca-pattern v1 dim=2 n=2 seed=1 tmax=1 radius=1\n"
         "0 0 1\n0 1 0\n0 0 0\n\n0 1 0\n1 0 1\n0 1 0\n",
         "row 0 has nonzero cells outside its light cone"),
        ("linca-pattern v1 dim=1 n=2 seed=0 tmax=1 radius=1\n0 0 0\n0 0 0\n",
         "seed in [1, n), got seed=0 n=2"),
        ("linca-pattern v1 dim=1 n=3 seed=3 tmax=0 radius=1\n0\n",
         "seed in [1, n), got seed=3 n=3"),
        ("linca-pattern v1 dim=1 n=2 seed=1 tmax=0 radius=1 extra=zz\n1\n",
         "unknown field extra"),
        ("linca-pattern v1 dim=1 n=2 seed=1 tmax=1 radius=1\n0 1 0\n1 0 2\n",
         "cell values must be reduced to [0, n)"),
        ("linca-pattern v1 dim=1 n=3 seed=1 tmax=1 radius=1\n0 1 0\n1 -1 1\n",
         "cell values must be reduced to [0, n)"),
        ("linca-pattern v1 dim=1 n=99999999999 seed=1 tmax=0 radius=1\n1\n",
         "modulus must be <="),
        ("linca-pattern v1 dim=2 n=2 seed=1 tmax=1 radius=1\n"
         "0 0 0\n0 1 0\n0 0 0\n\n0 1 0\n1 0 5\n0 1 0\n",
         "cell values must be reduced to [0, n)"),
        ("linca-pattern v1 dim=1 n=2 seed=1 tmax=1 radius=1\n0 1 0\n1 0 99999999999999999999\n",
         "cell values must be reduced to [0, n)"),
        ("linca-pattern v1 dim=2 n=2 seed=1 tmax=1 radius=1\n"
         "0 0 0\n0 1 0\n0 0 0\n\n0 1 0\n1 0\n0 1 0\n",
         "block 1 is not 3 lines of 3 cells"),
        ("linca-pattern v1 dim=1 n=2 seed=1 tmax=1 radius=1\n0 1 0\n1 x 1\n",
         "cell is not an integer: 'x'"),
        ("linca-pattern v1 dim=1 n=2 seed=1 tmax=0 radius\n1\n",
         "pattern header field radius lacks '='"),
        ("linca-pattern v1 dim=1 n=two seed=1 tmax=0 radius=1\n1\n",
         "pattern header n is not an integer: 'two'"),
        ("linca-pattern v1 dim=0 n=2 seed=1 tmax=0 radius=1\n1\n",
         "pattern text format supports D <= 2"),
        ("linca-pattern v1 dim=1 n=2 seed=1 tmax=1 radius=1\n0 1 0\n\n1 0 1\n",
         "expected 1 blank-line-separated blocks, found 2"),
        ("linca-pattern v1 dim=2 n=2 seed=1 tmax=1 radius=1\n"
         "0 0 0\n0 1 0\n0 0 0\n\n\n0 1 0\n1 0 1\n0 1 0\n",
         "block 1 is not 3 lines of 3 cells"),
        ("linca-pattern v1 dim=2 n=2 seed=1 tmax=1 radius=1\n"
         "0 0 0\n0 1 0\n0 0 0\n\n0 1 0\n1 0 1\n0 1 0\n\n",
         "block 1 is not 3 lines of 3 cells"),
        ("linca-pattern v1 dim=2 n=2 seed=1 tmax=1 radius=1\n"
         "0 0 0\n0 1 0\n\n0 0 0\n0 1 0\n1 0 1\n0 1 0\n",
         "block 0 is not 3 lines of 3 cells"),
        ("linca-pattern v1 dim=1 n=2 seed=1 tmax=1000000000000 radius=1\n1\n",
         "block 0 is not 1000000000001 lines of 2000000000001 cells"),
        ("linca-pattern v1 dim=1 n=2 seed=1 tmax=1 radius=1\n0 1 0\n1 0 " + "9" * 5000 + "\n",
         "cell values must be reduced to [0, n)"),
        ("linca-pattern v1 dim=1 n=2 seed=1 tmax=" + "9" * 5000 + " radius=1\n1\n",
         "pattern header tmax is out of range"),
    ],
    ids=["no-tmax", "negative-tmax", "negative-radius", "seed-mismatch", "outside-cone-1d",
         "outside-cone-2d", "seed-zero", "seed-not-below-n", "unknown-field", "cell-equals-n",
         "cell-negative", "modulus-too-large", "cell-out-of-range-2d", "cell-beyond-int64",
         "short-line-2d", "non-numeric-cell", "field-without-equals", "non-numeric-header",
         "dim-zero", "blank-line-1d", "doubled-blank-line-2d", "trailing-blank-line-2d",
         "lines-per-block-2d", "huge-tmax", "cell-5000-digits", "header-5000-digits"],
)
def test_parse_rejects_malformed_streams(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_pattern_text(text)


@pytest.mark.parametrize("header, cell", [
    ("n=2", "-" + "9" * 5000), ("n=2", "0" * 5000 + "x"), ("n=" + "x" * 5000, "1"),
    ("n=+" + "9" * 5000, "1"), ("n=-" + "0" * 5000 + "1", "1"), ("n=2", "1_0" * 10),
], ids=["negative-cell", "junk-cell", "junk-header", "plus-signed-header", "zero-padded-header",
        "underscored-cell"])
def test_long_tokens_are_refused_with_a_short_message(header, cell):
    text = f"linca-pattern v1 dim=1 {header} seed=1 tmax=0 radius=1\n{cell}\n"
    with pytest.raises(ValueError) as refused:
        parse_pattern_text(text)
    assert len(str(refused.value)) < 80, str(refused.value)[:100]


HEADER_VALUES = {"dim": ["1", "2"], "n": ["2", "3"], "seed": ["1"], "tmax": ["0", "1", "2"],
                 "radius": ["0", "1"]}
BAD_VALUES = ["0", "3", "-1", "two", "1000000000000", "99999999999999999999"]
BAD_CELLS = ["x", "2", "-1", "99999999999999999999"]
BAD_LINES = ["", "x", "1 99999999999999999999 0", "0 0", "0 0 0 0"]


@st.composite
def pattern_texts(draw):
    """A stream in the writer's layout with random 0/1 cells, then at most one header
    fault (a field bare, missing or badly valued: dim 0 or 3, huge tmax, not an integer)
    and at most one body fault (a bad cell, an extra blank or ragged line, a lost line)."""
    values = {key: draw(st.sampled_from(choices)) for key, choices in HEADER_VALUES.items()}
    dim, t_max, radius = (int(values[key]) for key in ("dim", "tmax", "radius"))
    width = 2 * radius * t_max + 1
    blocks, height = (t_max + 1, width) if dim == 2 else (1, t_max + 1)
    size = blocks * height * width
    bits = format(draw(st.integers(0, 2**size - 1)), f"0{size}b")
    rows = [list(bits[k:k + width]) for k in range(0, size, width)]
    lines = []  # token lists; [] is the empty line between blocks
    for b in range(blocks):
        lines += [[]] * (b > 0) + rows[b * height:(b + 1) * height]
    header = [f"{key}={value}" for key, value in values.items()]
    i = draw(st.integers(0, len(header) - 1))
    header_fault = draw(st.sampled_from([None, "bare", "missing", "value"]))
    if header_fault == "bare":
        header[i] = HEADER_FIELDS[i]
    elif header_fault == "missing":
        del header[i]
    elif header_fault == "value":
        header[i] = f"{HEADER_FIELDS[i]}={draw(st.sampled_from(BAD_VALUES))}"
    j = draw(st.integers(0, len(lines) - 1))
    body_fault = draw(st.sampled_from([None, "cell", "add", "lose"]))
    if body_fault == "cell" and lines[j]:
        lines[j][draw(st.integers(0, width - 1))] = draw(st.sampled_from(BAD_CELLS))
    elif body_fault == "add":
        lines.insert(j, draw(st.sampled_from(BAD_LINES)).split())
    elif body_fault == "lose":
        del lines[j]
    body = "".join(" ".join(line) + "\n" for line in lines)
    return " ".join([TEXT_MAGIC] + header) + "\n" + body


@settings(max_examples=300, deadline=None)
@given(text=pattern_texts())
def test_parse_refuses_malformed_text_only_with_value_error(text):
    try:
        parse_pattern_text(text)
    except ValueError:
        pass


def padded_rows(pattern):
    radius = rule_radius(pattern.rule)
    reach = radius * pattern.t_max
    return [np.pad(row, reach - radius * t) for t, row in enumerate(pattern.cells)]


def per_cell_text(pattern):
    """The text format written one str() per cell."""
    header = (
        f"linca-pattern v1 dim={pattern.dimension} n={pattern.modulus} seed={pattern.seed} "
        f"tmax={pattern.t_max} radius={rule_radius(pattern.rule)}"
    )
    if pattern.dimension == 1:
        blocks = [" ".join(str(v) for v in grid) for grid in padded_rows(pattern)]
        return header + "\n" + "\n".join(blocks) + "\n"
    blocks = [
        "\n".join(" ".join(str(v) for v in line) for line in grid)
        for grid in padded_rows(pattern)
    ]
    return header + "\n" + "\n\n".join(blocks) + "\n"


@pytest.mark.parametrize("n", [2, 10, 11, 101, MAX_MODULUS])
@pytest.mark.parametrize("t_max", [0, 1, 6])
def test_pattern_text_matches_per_cell_text(n, t_max, rule_2d):
    rules = (parse_rule("1@(-1);2@(0);3@(1)"), parse_rule("1@(-2);5@(1)"), rule_2d)
    for rule in rules:
        for a in sorted({1, n // 3 or 1, n - 1}):
            pattern = evolve(n, rule, a, t_max)
            assert pattern_to_text(pattern) == per_cell_text(pattern)
            recovered = parse_pattern_text(pattern_to_text(pattern)).cells
            assert len(recovered) == len(pattern.cells)
            for original, parsed in zip(pattern.cells, recovered):
                assert np.array_equal(original, parsed)


@pytest.mark.parametrize("n", [2, 10, 11, 101, MAX_MODULUS])
def test_render_image_matches_the_padded_grid(n, tmp_path):
    out = tmp_path / "rows.pgm"
    for text, t_max in (("1@(-1);2@(0);3@(1)", 0), ("1@(-1);2@(0);3@(1)", 9), ("1@(-2);5@(1)", 7)):
        pattern = evolve(n, parse_rule(text), n - 1, t_max)
        grid = np.stack(padded_rows(pattern))
        render_image(pattern, out)
        height, width = grid.shape
        expected = f"P5\n{width} {height}\n255\n".encode("ascii") + state_pixels(grid, n).tobytes()
        assert out.read_bytes() == expected
    pattern = evolve(n, parse_rule("1@(-1,0);2@(0,1);3@(1,1)", dimension=2), n - 1, 5)
    frames = render_image(pattern, out)
    assert len(frames) == pattern.t_max + 1
    for frame, grid in zip(frames, padded_rows(pattern)):
        width = grid.shape[0]
        expected = f"P5\n{width} {width}\n255\n".encode("ascii") + state_pixels(grid, n).tobytes()
        assert frame.read_bytes() == expected


def per_row_pixels(pattern):
    """The PGM box painted one row at a time through state_pixels, white outside."""
    radius = rule_radius(pattern.rule)
    reach = radius * pattern.t_max
    box = np.full((pattern.t_max + 1,) + (2 * reach + 1,) * pattern.dimension, 255, np.uint8)
    for t, row in enumerate(pattern.cells):
        cone = (slice(reach - radius * t, reach + radius * t + 1),) * pattern.dimension
        box[(t,) + cone] = state_pixels(row, pattern.modulus)
    return box


@pytest.mark.parametrize("text, dimension, t_max", [
    ("1@(-1);2@(0);3@(1)", 1, 6), ("1@(-2);5@(1)", 1, 4), ("1@(-1,0);2@(0,1);3@(1,1)", 2, 3)])
def test_render_image_is_the_same_through_the_state_table_and_without(
        text, dimension, t_max, tmp_path):
    rule = parse_rule(text, dimension=dimension)
    cells = sum(row.size for row in evolve(2, rule, 1, t_max).cells)
    for n in (cells, cells + 1):  # the table is read while n <= cells
        pattern = evolve(n, rule, n - 1, t_max)
        frames = render_image(pattern, tmp_path / "p.pgm")
        box = per_row_pixels(pattern)
        for frame, pixels in zip(frames, box if dimension == 2 else [box], strict=True):
            height, width = pixels.shape
            header = f"P5\n{width} {height}\n255\n".encode("ascii")
            assert frame.read_bytes() == header + pixels.tobytes(), (n, frame.name)


def test_render_image_mod2(tmp_path, rule90):
    out = tmp_path / "gasket.pgm"
    written = render_image(evolve(2, rule90, 1, 2), out)
    assert written == [out]
    data = out.read_bytes()
    assert data.startswith(b"P5\n5 3\n255\n")
    pixels = np.frombuffer(data.split(b"255\n", 1)[1], dtype=np.uint8).reshape(3, 5)
    assert list(pixels[0]) == [255, 255, 0, 255, 255]
    assert list(pixels[2]) == [0, 255, 255, 255, 0]


def test_render_image_grayscale_ramp(tmp_path):
    # one step of the identity rule keeps every state; n=5 ramps across grays
    rule = parse_rule("1@(0)")
    out = tmp_path / "ramp.pgm"
    shades = {}
    for a in range(1, 5):
        render_image(evolve(5, rule, a, 0), out)
        shades[a] = out.read_bytes()[-1]
    assert shades == {1: 192, 2: 128, 3: 64, 4: 0}


def test_render_image_all_zero_row_is_white(tmp_path):
    # coefficients even, n = 2: the rule is legal but every later row is zero
    rule = parse_rule("2@(-1);2@(1)")
    out = tmp_path / "blank.pgm"
    render_image(evolve(2, rule, 1, 1), out)
    data = out.read_bytes()
    pixels = np.frombuffer(data.split(b"255\n", 1)[1], dtype=np.uint8).reshape(2, 3)
    assert list(pixels[1]) == [255, 255, 255]


def test_mask_is_invariant_across_unit_seeds(tmp_path, rule90):
    masks = []
    for a in (1, 2):
        out = tmp_path / f"seed{a}.pgm"
        render_image(evolve(5, rule90, a, 15), out)
        data = out.read_bytes().split(b"255\n", 1)[1]
        pixels = np.frombuffer(data, dtype=np.uint8)
        masks.append(pixels == 255)
    assert np.array_equal(masks[0], masks[1])


def test_render_image_two_dimensional_frames(tmp_path, rule_2d):
    out = tmp_path / "cross.pgm"
    written = render_image(evolve(3, rule_2d, 1, 2), out)
    assert [p.name for p in written] == ["cross_t000.pgm", "cross_t001.pgm", "cross_t002.pgm"]
    for path in written:
        header = path.read_bytes().split(b"\n")
        assert header[0] == b"P5"
        assert header[1] == b"5 5"


def test_render_image_rejects_three_dimensional(tmp_path):
    rule = parse_rule("1@(-1,0,0);1@(1,0,0)", dimension=3)
    with pytest.raises(ValueError, match="render supports D <= 2"):
        render_image(evolve(2, rule, 1, 2), tmp_path / "nope.pgm")
