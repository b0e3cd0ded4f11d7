"""Reference constructions that only the tests use: a rank over F_p of a
dense matrix, the regular module over F_p[u]/(u^p), the first reduced
power as a derivation, and the word-by-word value of a sum of generator
words."""

from padem.arith import _echelon
from padem.nilhecke import NilHeckeElement, apply_word
from padem.pdg import Derivation, GradedOperator, GradedSpace
from padem.poly import Polynomial
from padem.steenrod import bar_act


def rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of the matrix with these rows of integers."""
    vectors = ({j: int(c) for j, c in enumerate(row) if c} for row in rows)
    return len(_echelon(vectors, p))


def regular_nilpotent_module(p: int) -> tuple[GradedSpace, GradedOperator]:
    """The rank-one free module over F_p[u]/(u^p) with u in degree 2,
    together with multiplication by u."""
    basis = {2 * k: [k] for k in range(p)}
    space = GradedSpace(p, basis, complete=True)

    def fn(k: int) -> dict[int, int]:
        return {k + 1: 1} if k + 1 < p else {}

    return space, GradedOperator.from_callable(space, fn, 2)


def power_one_derivation(p: int, n: int, degree_bound: int = 12) -> Derivation:
    """The first reduced power acting as a derivation: x_i -> x_i^p on
    polynomials, with the operator images induced through the bar action.

    This is the degree 2(p-1) differential generating the smallest
    filtration subalgebra."""
    x_images = [Polynomial.variable(p, n, i) ** p for i in range(1, n + 1)]
    d_images = [
        bar_act(1, NilHeckeElement.d_gen(p, n, i), "standard", degree_bound)
        for i in range(1, n)
    ]
    return Derivation(p, n, x_images, d_images)


def apply_word_sum(words, f: Polynomial) -> Polynomial:
    """Value on f of a sum ((coefficient, letters), ...) of generator
    words: the sum of c * apply_word(letters, f), one word at a time."""
    out = Polynomial.zero(f.p, f.n)
    for c, letters in words:
        out = out + apply_word(letters, f) * c
    return out
