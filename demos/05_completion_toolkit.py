"""Finishing a partial square: Hall matchings, SDRs, and a famous dead end.

Coloring the vital subgraph only fills the multi-cell blocks; the rest of
the square still has to be completed without breaking row/column exclusion.
The toolkit: Latin rectangles always extend (Hall's theorem, via bipartite
matching), systems of distinct representatives either exist or come with a
violating witness, and the symbol/row interchange turns completion problems
into rectangle problems.  But greedily merging symbols first can paint the
square into a corner that no completion escapes.
"""

from lsnc import (
    Coloring,
    build_constraints,
    build_srg,
    candidate_cells,
    complete_rows_hall,
    extend_coloring,
    find_sdr,
    generic_complete,
    interchange_symbol_row,
    make_custom,
    verify_proper,
    vital_subgraph,
)
from lsnc.cli import render_grid
from lsnc.fixtures import load_grid, load_points

print("=== 1. Latin rectangles always extend ===")
rect = load_grid("hall_rect")
print(render_grid(rect))
print("row-by-row perfect matchings give:")
print(render_grid(complete_rows_hall(rect)))

print("=== 2. distinct representatives, or a witness ===")
family = [[1, 2], [2, 3], [1, 3]]
res = find_sdr(family)
print(f"family {family} -> representatives {res.representatives}")
family = [[1], [1], [2, 3]]
res = find_sdr(family)
print(f"family {family} -> no SDR; sets {res.violating} share too few elements")

print()
print("=== 3. symbol/row interchange ===")
pls = load_grid("interchange_pls")
print(render_grid(pls))
print("exchanging the roles of symbol and row gives a rectangle problem:")
print(render_grid(interchange_symbol_row(pls)))
print(f"symbol 3 may still go in {candidate_cells(pls, 3)}:")
print("filling rectangle row 3 picks one of them in each row and each column.")

print("=== 4. a tempting start that cannot be finished ===")
signal = make_custom(load_points("qam8_rect_points"))
part = build_constraints(signal, -0.5 - 0.5j)
graph = build_srg(part)
vital = vital_subgraph(graph)

# Merge the 18 pre-filled symbols down to 8 in a plausible-looking way.
classes = [(1, 9), (2, 15), (3, 18), (4, 16, 17),
           (5, 11, 12), (6, 13), (7, 10), (8, 14)]
partial = {
    part.multi_indices[sym - 1]: color
    for color, members in enumerate(classes, 1)
    for sym in members
}
stated = Coloring(tuple(partial[b] for b in vital.vertex_block))
print(f"the 8-color start is proper on the vital subgraph: "
      f"{verify_proper(vital, stated)}")
print(f"...but extending it to the full graph with 8 colors: "
      f"{extend_coloring(graph, partial, 8)}")
pfls = load_grid("qam8_rect_pfls")
print(f"equivalently, its partial square has no 8-symbol completion: "
      f"{generic_complete(pfls, 8)}")
print()
print("An 8-symbol map still exists — color the whole graph in one pass:")
print(render_grid(load_grid("qam8_rect_ls")))
