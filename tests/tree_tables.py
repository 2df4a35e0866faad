"""The table space of the tree property tests: small control sets with
continuous, tied, two-valued, constant and repeated columns, and the
settings to grow them with. Test modules import it as ``from tree_tables
import trees``, as they import ``conftest``."""

import numpy as np

from conftest import control_only, st


@st.composite
def trees(draw):
    """A control set, and the ``lambda_``, ``theta`` and ``max_depth`` to
    grow it with. The outcome steps up on one drawn column, above one of
    its values, so that splits get accepted."""
    p = draw(st.integers(1, 4))
    n = draw(st.integers(1, 10 * (p + 2)).map(lambda k: 10 * (p + 2) + 1 - k))  # large n first
    value = st.floats(-4, 4, allow_nan=False, width=16)
    cols = []
    for j in range(p):
        kind = draw(st.sampled_from(["floats", "ties", "two", "constant", "repeat"]))
        if kind == "repeat" and cols:
            cols.append(cols[draw(st.integers(0, len(cols) - 1))])
        elif kind == "two":
            cols.append(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
        elif kind == "constant":
            cols.append([draw(value)] * n)
        else:
            pool = st.sampled_from([-1.0, 0.0, 0.5, 2.0]) if kind == "ties" else value
            cols.append(draw(st.lists(pool, min_size=n, max_size=n)))
    x = np.array(cols, dtype=np.float64).T
    y = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    step = x[:, draw(st.integers(0, p - 1))]
    y += 16.0 * (step > step[draw(st.integers(0, n - 1))])
    lambda_ = draw(st.sampled_from([-1.0, 0.0, 0.1]))
    theta = draw(st.sampled_from([2, 30]))
    max_depth = draw(st.integers(0, 3).map(lambda k: 3 - k))  # deep trees first
    return control_only(x, y), lambda_, theta, max_depth
