"""Grid JSON serialization.

Schema: ``{"m": M, "cells": [[...], ...]}`` — row-major, 1-indexed symbols,
0 for an empty cell.  ``dumps_grid`` output is deterministic (one row per
line) so identical grids serialize byte-identically.
"""

from __future__ import annotations

import json
from typing import Any

from .latin import Grid

__all__ = ["grid_from_obj", "dumps_grid", "loads_grid"]


def grid_from_obj(obj: Any) -> Grid:
    if not isinstance(obj, dict) or "m" not in obj or "cells" not in obj:
        raise ValueError("grid JSON needs keys 'm' and 'cells'")
    try:
        grid = Grid.from_lists(obj["cells"])
    except TypeError:
        raise ValueError("grid cells must be a list of lists of integers") from None
    if type(obj["m"]) is not int or grid.m != obj["m"]:
        raise ValueError(f"declared m={obj['m']} but cells are {grid.m}x{grid.m}")
    if not grid.m:
        raise ValueError("grid has no cells")
    return grid


def dumps_grid(grid: Grid) -> str:
    # Grid admits only int cells, so a row's list repr is its JSON text.
    rows = ",\n".join("  " + str(list(r)) for r in grid.rows)
    return '{\n "m": %d,\n "cells": [\n%s\n ]\n}\n' % (grid.m, rows)


def loads_grid(text: str) -> Grid:
    return grid_from_obj(json.loads(text))
