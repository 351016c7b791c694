"""M-PSK without search: closed-form squares for every representative.

For 2^n-PSK the constraint blocks, the vital-subgraph adjacency, and a
proper coloring all have closed forms, so an M-symbol removing Latin square
for every singular fade state comes out of direct construction — no
backtracking, and row 1's M distinct blocks certify that M symbols is
optimal.
"""

import cmath

from lsnc import (
    build_constraints,
    column_rotate,
    make_psk,
    psk_representative,
    transpose,
    verify_removes,
)
from lsnc.cli import render_grid
from lsnc.psk_construct import classify, remove_all_psk

m = 8

print(f"=== all representatives of {m}-PSK ===")
squares = remove_all_psk(m)
print(f"{'k':>2} {'l':>2}  case       symbols  chi")
for (k, l), grid in squares.items():
    print(f"{k:>2} {l:>2}  {classify(m, k, l).tag:<10} {grid.symbol_count:>7}  {m}")

print()
print("remove_all_psk certified every square: complete, Latin, with M symbols,")
print("removing the brute-force partition, whose row 1 meets M distinct, pairwise-")
print(f"adjacent blocks that bound chi below, so chi = {m} on every state.")

print()
k, l = 1, 3
print(f"=== the (k={k}, l={l}) square, built from its vital coloring ===")
print(render_grid(squares[(k, l)]))

print()
print("One square serves its whole circle and the inverse circle:")
signal, s = make_psk(m), psk_representative(m, k, l).value
turns = [
    verify_removes(column_rotate(squares[(k, l)], n),
                   build_constraints(signal, s * cmath.exp(2j * cmath.pi * n / m)))
    for n in range(m)
]
print(f"  columns rotated by n remove s*e^(2j*pi*n/{m}): {sum(turns)} of {m} states")
inverse = verify_removes(transpose(squares[(k, l)]), build_constraints(signal, 1 / s))
print(f"  the transpose removes 1/s, on the (k={l}, l={k}) circle: {inverse}")

print()
print("The same construction scales; 16-PSK has 56 representatives:")
print(f"  built and certified {len(remove_all_psk(16))} squares")
