"""A pinned sha256 digest of every closed-form function over a fixed grid.

The value tests compare with a relative tolerance; this one pins every bit
of every result and, where a point lies outside a form's domain, the message
of the first check that rejects it.  So a refactor of the bound layer must
keep both the floats and the order of its checks.  The grid takes n as an
int and every other argument as a float, and it holds out-of-domain points,
points on the domain's edges and powers above the double range.
"""

import hashlib
from itertools import product

from chainhash.bounds import (
    exponent_form_bound,
    gaussian_tail_bound,
    load_factor_bound,
    params_from_load,
    polynomial_tail_bound,
    simplified_gaussian_bound,
)
from chainhash.search_time import (
    combined_query_bound,
    restricted_access_bound,
    search_time_bound_eps,
    search_time_bound_margin,
)

N = (-5, 2, 24, 25, 100, 10**6, 10**300, 10**400)
X = (-1.0, 0.0, 1e-300, 0.1, 0.3, 1.0, 9.0, 100.0, 1e200)

# Each form with the value pool of each of its arguments, in argument order.
FORMS = (
    (polynomial_tail_bound, (N, X, X)),
    (gaussian_tail_bound, (N, X, X, X)),
    (simplified_gaussian_bound, (N, X, X)),
    (load_factor_bound, (X, X)),
    (exponent_form_bound, (N, X, X)),
    (params_from_load, (N, X, X)),
    (search_time_bound_margin, (X, N, X, X, X)),
    (search_time_bound_eps, (X, N, X, X, X)),
    (restricted_access_bound, (X, X, X, X)),
    (combined_query_bound, (X, X, X, X, X)),
)

# Taken before the gaussian failure term and the n > 24 check each moved
# into one function of `bounds`.
DIGEST = "39c71b0003792ea6702eaae09937d169379f2934194f14ecde6d1ce687a22cd0"


def test_closed_form_results_and_errors_are_pinned():
    h = hashlib.sha256()
    for fn, pools in FORMS:
        for args in product(*pools):
            try:
                out = repr(fn(*args))
            except ValueError as exc:
                out = f"ValueError: {exc}"
            h.update(f"{fn.__name__}{args!r} {out}\n".encode())
    assert h.hexdigest() == DIGEST
