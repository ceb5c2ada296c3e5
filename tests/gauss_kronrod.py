"""One Gauss-Kronrod 15(7) panel, the quadrature's rule and error estimate
outside its adaptive driver: a reference the tests integrate with directly."""

import numpy as np

from cole_lab.quadrature import _nodes, _rules


def kronrod_15(f, lo: float, hi: float):
    """(value, error estimate) of f over [lo, hi] from one panel, f called
    once on its 15 nodes."""
    nodes, half = _nodes(np.array([lo]), np.array([hi]))
    fx = np.asarray(f(nodes.ravel()), dtype=float).reshape(1, 15)
    (err,), (val,) = _rules(fx, half)
    return val, err
