import re

import numpy as np
import pytest

from linca.engine import evolve
from linca.render import parse_pattern_text, pattern_to_text, render_image
from linca.rule import parse_rule


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
        assert len(parsed.rows) == len(pattern.rows)
        for original, recovered in zip(pattern.rows, parsed.rows):
            assert original.origin == recovered.origin
            assert np.array_equal(original.cells, recovered.cells)


def test_text_round_trip_two_dimensional(rule_2d):
    pattern = evolve(3, rule_2d, 2, 4)
    parsed = parse_pattern_text(pattern_to_text(pattern))
    for original, recovered in zip(pattern.rows, parsed.rows):
        assert original.origin == recovered.origin
        assert np.array_equal(original.cells, recovered.cells)


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
    ],
    ids=["no-tmax", "negative-tmax", "negative-radius", "seed-mismatch", "outside-cone-1d",
         "outside-cone-2d"],
)
def test_parse_rejects_malformed_streams(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_pattern_text(text)


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
