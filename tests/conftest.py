import ast
import inspect
import textwrap
from functools import cache

import numpy as np
import pytest

from hankelbody import ParamTriple, PoleParam, kernels
from hankelbody.hankel import h_p


@pytest.fixture
def pp05():
    return PoleParam(0.5)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def paper_B(P, y):
    """The paper's bound terms B0..B3 at y = |sigma0|, written out as floats
    in the order the closed form takes them; P and y may be sympy symbols."""
    my = 1.0 - y * y
    B0 = 18.0 * P * (1.0 + (P * P - 2.0) * y + y * y)
    B1 = 3.0 * (1.0 - 7.0 * P * P + 2.0 * P**4 + (3.0 * P * P - 2.0) * y + y * y) * my
    B2 = P * (2.0 * my + 3.0 * y * (P * P - 1.0 + y)) * my
    B3 = 3.0 * P * (P * P - 1.0 + y) * my
    return B0, B1, B2, B3


def triples(arr):
    return [ParamTriple(*map(complex, row)) for row in arr]


@cache
def slice_max_on_grid(p: float) -> float:
    """max |h_p| over 2,000,001 equally spaced t in [0, 1], a reference for the
    slice maximum that takes no root of h_p'."""
    return float(np.max(np.abs(h_p(PoleParam(p), np.linspace(0.0, 1.0, 2_000_001)))))


def source_mutants(fn, edits):
    """Copies of ``fn``, each copy with one (label, old, new) edit of its
    source; ``old`` must occur exactly once."""
    source = textwrap.dedent(inspect.getsource(fn))
    for label, old, new in edits:
        assert source.count(old) == 1, label
        namespace = dict(fn.__globals__)
        exec(compile(source.replace(old, new), fn.__code__.co_filename, "exec"), namespace)
        yield label, namespace[fn.__name__]


#: the one transcription of Phi, behind phi_p, phi_batch, phi_sigma2_max,
#: best_sigma2 and B_coeffs: its sigma0 terms, their composition with sigma1
#: and its P-only factors, which hold 18 numeric literals
PHI_FUNCTIONS = (kernels.phi_sigma0_terms, kernels._phi_terms, kernels.phi_factors)


def literal_mutants(*functions):
    """Copies of each of ``functions``, each copy with one numeric literal
    raised by 1e-3."""
    def literals(tree):
        return [node for node in ast.walk(tree) if isinstance(node, ast.Constant)
                and type(node.value) in (int, float)]

    for fn in functions:
        source = textwrap.dedent(inspect.getsource(fn))
        for k in range(len(literals(ast.parse(source)))):
            tree = ast.parse(source)
            node = literals(tree)[k]
            label = f"{fn.__name__} line {node.lineno}: {node.value!r}"
            node.value += 1e-3
            namespace = dict(fn.__globals__)
            exec(compile(tree, fn.__code__.co_filename, "exec"), namespace)
            yield label, namespace[fn.__name__]
