"""Grow the classic two-state gasket from a single seeded cell.

With two states the rule (Tu)_i = u_{i-1} + u_{i+1} mod 2 reduces to XOR of
the two neighbors, and the orbit of a lone 1 traces Pascal's triangle mod 2.
This script prints the first rows as ASCII art, cross-checks all 65 rows
against an independent binomial computation, and writes the full picture as
a PGM image next to this file.
"""

from pathlib import Path

from linca import binomial_parity_row, evolve, parse_rule, render_image

rule = parse_rule("1@(-1);1@(1)")
pattern = evolve(2, rule, 1, 64)

print("first 16 rows (time flows downward):")
# row t holds sites -t..t; centering it on 33 columns shows sites -16..16
for row in pattern.cells[:16]:
    print("".join("#" if v else " " for v in row.tolist()).center(33))

mismatches = sum(
    row.tolist() != binomial_parity_row(t) for t, row in enumerate(pattern.cells)
)
print(f"\nrows disagreeing with the binomial recomputation: {mismatches} of 65")

out = Path(__file__).with_name("sierpinski_gasket.pgm")
render_image(pattern, out)
print(f"wrote {out} ({out.stat().st_size} bytes, 129x65 grayscale)")
