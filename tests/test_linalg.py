import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nabext.fields import GF2, GF3, QQ, PrimeField
from nabext.linalg import (
    identity_matrix,
    mat_mul,
    mat_vec,
    rank,
    solution_space,
    solve,
    vec_add,
    vec_scale,
)


def test_rank_of_identity_and_zero():
    assert rank(QQ, identity_matrix(QQ, 3)) == 3
    zero = ((QQ.zero, QQ.zero), (QQ.zero, QQ.zero))
    assert rank(QQ, zero) == 0


def test_rank_with_dependent_rows():
    m = (
        (Fraction(1), Fraction(2)),
        (Fraction(2), Fraction(4)),
        (Fraction(0), Fraction(1)),
    )
    assert rank(QQ, m) == 2


def test_solve_unique_rational_system():
    # x + 2y = 5, 3x - y = 1  =>  x = 1, y = 2
    m = ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(-1)))
    b = (Fraction(5), Fraction(1))
    x = solve(QQ, m, b)
    assert x == (Fraction(1), Fraction(2))
    assert mat_vec(QQ, m, x) == b


def test_solve_inconsistent_returns_none():
    m = ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1)))
    assert solve(QQ, m, (Fraction(0), Fraction(1))) is None


def test_solve_underdetermined_is_deterministic_and_valid():
    m = ((Fraction(1), Fraction(1), Fraction(0)),)
    b = (Fraction(3),)
    x = solve(QQ, m, b)
    assert x is not None and mat_vec(QQ, m, x) == b
    assert x == solve(QQ, m, b)


@pytest.mark.parametrize("field", [GF2, GF3, QQ])
def test_solve_recovers_random_images(field):
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = tuple(
            tuple(field.random(rng) for _ in range(n)) for _ in range(rng.randint(1, 4))
        )
        x = tuple(field.random(rng) for _ in range(n))
        b = mat_vec(field, m, x)
        got = solve(field, m, b)
        assert got is not None
        assert mat_vec(field, m, got) == b


def test_mat_mul_matches_composition_over_gf3():
    rng = random.Random(9)
    m = tuple(tuple(GF3.random(rng) for _ in range(3)) for _ in range(2))
    n = tuple(tuple(GF3.random(rng) for _ in range(2)) for _ in range(3))
    x = tuple(GF3.random(rng) for _ in range(2))
    assert mat_vec(GF3, mat_mul(GF3, m, n), x) == mat_vec(GF3, m, mat_vec(GF3, n, x))


def test_vector_helpers():
    v = (Fraction(1), Fraction(2))
    assert vec_add(QQ, v, v) == (Fraction(2), Fraction(4))
    assert vec_scale(QQ, Fraction(1, 2), v) == (Fraction(1, 2), Fraction(1))


def test_nullspace_of_a_rational_system():
    # x + y + z = 0 and y = 2z: one free column, z
    m = ((Fraction(1), Fraction(1), Fraction(1)), (Fraction(0), Fraction(1), Fraction(-2)))
    assert solution_space(QQ, m, (QQ.zero,) * 2)[1] == ((Fraction(-3), Fraction(2), Fraction(1)),)
    assert solution_space(QQ, identity_matrix(QQ, 2), (QQ.zero,) * 2)[1] == ()


@settings(deadline=None, max_examples=100)
@given(st.sampled_from([GF2, GF3]), st.integers(1, 4), st.integers(1, 4), st.data())
def test_nullspace_spans_exactly_the_solutions(field, n_rows, n_cols, data):
    # every combination of the basis solves m x = 0, and the combinations
    # are p^(n - rank) distinct points: all the solutions; for a right-hand
    # side b, the one solution plus the combinations are exactly the points
    # of F_p^n that brute force finds, and None means there are none
    entries = st.sampled_from(list(field.elements()))
    m = tuple(tuple(data.draw(entries) for _ in range(n_cols)) for _ in range(n_rows))
    b = tuple(data.draw(entries) for _ in range(n_rows))
    zero = (field.zero,) * n_rows
    x0, basis = solution_space(field, m, zero)
    assert x0 == (field.zero,) * n_cols
    assert len(basis) == n_cols - rank(field, m)

    def span(x0, vectors):
        points = set()
        for combo in itertools.product(list(field.elements()), repeat=len(vectors)):
            x = x0
            for c, v in zip(combo, vectors):
                x = vec_add(field, x, vec_scale(field, c, v))
            points.add(x)
        return points

    points = span((field.zero,) * n_cols, basis)
    assert all(mat_vec(field, m, x) == zero for x in points)
    assert len(points) == field.p ** (n_cols - rank(field, m))
    brute = {
        x for x in itertools.product(list(field.elements()), repeat=n_cols) if mat_vec(field, m, x) == b
    }
    solved = solution_space(field, m, b)
    if solved is None:
        assert not brute and solve(field, m, b) is None
    else:
        x0, affine_basis = solved
        assert affine_basis == basis and x0 == solve(field, m, b)
        assert span(x0, affine_basis) == brute


def test_elimination_works_on_the_pivot_rows_support_only(monkeypatch):
    # deterministic work count: x_(i-1) + 2 x_i = 1 over F3 for 8 unknowns.
    # Each pivot row holds 2 nonzeros (the diagonal and the right-hand side)
    # and the next row holds its column, so a pivot costs 2 products to
    # scale and 2 to clear: 4 in all, not the 2 * 9 of a dense update of
    # the two rows
    n = 8
    m = tuple(tuple(2 if j == i else 1 if j == i - 1 else 0 for j in range(n)) for i in range(n))
    b = (1,) * n
    products = []
    real = PrimeField.mul
    monkeypatch.setattr(PrimeField, "mul", lambda self, x, y: products.append((x, y)) or real(self, x, y))
    x, basis = solution_space(GF3, m, b)
    assert len(products) <= 4 * n
    monkeypatch.undo()
    assert mat_vec(GF3, m, x) == b and basis == ()


def test_solution_space_rejects_a_mismatched_right_hand_side():
    with pytest.raises(ValueError):
        solution_space(GF2, ((1, 0),), (1, 0))
