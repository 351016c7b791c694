"""Grid JSON serialization: schema, determinism, round trips."""

import json

import pytest

from lsnc import Grid
from lsnc.gridio import dumps_grid, grid_from_obj, loads_grid


def test_roundtrip_is_identity():
    g = Grid.from_lists([[1, 0, 3], [3, 1, 0], [0, 2, 1]])
    assert loads_grid(dumps_grid(g)) == g


def test_serialized_form_is_stable():
    g = Grid.from_lists([[1, 2], [2, 1]])
    text = dumps_grid(g)
    assert text == dumps_grid(loads_grid(text))
    obj = json.loads(text)
    assert obj == {"m": 2, "cells": [[1, 2], [2, 1]]}


def test_obj_schema():
    g = Grid.from_lists([[0, 1], [1, 0]])
    assert json.loads(dumps_grid(g)) == {"m": 2, "cells": [[0, 1], [1, 0]]}
    assert grid_from_obj({"m": 2, "cells": [[0, 1], [1, 0]]}) == g


@pytest.mark.parametrize(
    "obj",
    [
        {"cells": [[1]]},
        {"m": 2, "cells": [[1, 2]]},
        {"m": 3, "cells": [[1, 2], [2, 1]]},
        {"m": 2, "cells": [[1, 2], [2, "x"]]},
        {"m": 1, "cells": 5},
        {"m": 1, "cells": [[None]]},
        {"m": 1, "cells": [[1.7]]},
        {"m": 1, "cells": [[True]]},
        {"m": 1, "cells": [["3"]]},
        {"m": 1, "cells": [5]},
        {"m": True, "cells": [[1]]},
        {"m": 0, "cells": []},
        [[None]],
    ],
)
def test_malformed_objects_rejected(obj):
    with pytest.raises(ValueError):
        grid_from_obj(obj)
