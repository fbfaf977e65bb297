"""Tests for the weight-graded homology models.

Small cases are frozen from hand computation; the three independent
routes (bar complex, curve/line cone, closed form) are then compared on
a sweep, which is the real cross-check.
"""

from itertools import combinations

import pytest
from test_homlinalg import entries, from_entries, product

from cuspk.errors import (ComplexInvalid, PreconditionViolation, ResourceBound,
                          TheoremViolation)
from cuspk.homlinalg import ChainComplex, HomologySummary, homology, mapping_cone
from cuspk.cli import DEFAULT_PAIRS
from cuspk.semigroup import Params, ell, is_member
from cuspk.simplicialx import _check_generator, build_sigma, generator_cycle
from cuspk.cyclicbar import (
    _koszul_image,
    cone_de_rham_matrix,
    connes_factor_bar,
    connes_factor_small,
    connes_matrix,
    curve_basis,
    expected_ty_homology,
    parametrization_map,
    relative_bar_complex,
    relative_cone,
    ty_agreement_check,
)

P23 = Params(2, 3)
README_PAIRS = [(2, 3), (2, 5), (3, 4), (3, 5)]


def H(mapping):
    return HomologySummary.of(mapping)


def parts(mask, m):
    """The part tuple (m_0, ..., m_q) of a cut mask in weight m."""
    cuts = [c for c in range(m) if mask >> c & 1]
    return tuple(y - x for x, y in zip([0] + cuts, cuts + [m]))


def tuple_basis(C, m):
    """The basis of a bar complex in weight m, labelled by part tuples."""
    return {q: [parts(mask, m) for mask in masks] for q, masks in C.basis.items()}


def bar_basis(p, m):
    return tuple_basis(relative_bar_complex(p, m), m)


def bar_homology(p, m):
    return homology(relative_bar_complex(p, m))


def cone_homology(p, m):
    return homology(relative_cone(p, m))


def to_dense(M):
    return [[M._rows[r].get(c, 0) for c in range(M.ncols)] for r in range(M.nrows)]


# reference implementations on part tuples (m_0, ..., m_q); cyclicbar
# labels its cells by cut masks, which `parts` maps to these tuples


def _compositions(total: int, parts: int):
    """Tuples of `parts` positive integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for cuts in combinations(range(1, total), parts - 1):
        prev = 0
        out = []
        for c in cuts + (total,):
            out.append(c - prev)
            prev = c
        yield tuple(out)


def _bar_faces(t: tuple):
    """Hochschild faces of (m_0, ..., m_q); the last one is cyclic."""
    q = len(t) - 1
    for i in range(q):
        yield i, t[:i] + (t[i] + t[i + 1],) + t[i + 2:]
    yield q, (t[q] + t[0],) + t[1:q]


def _connes_terms(t: tuple):
    """B(x) = sum_i (-1)^{qi} (0, x_i, ..., x_q, x_0, ..., x_{i-1}), zero
    when x_0 = 0."""
    q = len(t) - 1
    if t[0]:
        for i in range(q + 1):
            yield (0,) + t[i:] + t[:i], (-1) ** (q * i)


def entries_matrix(rows, cols, image):
    """Matrix of a labelled map from an entries dict filled column by
    column, so each row lists its columns increasingly."""
    index = {lbl: i for i, lbl in enumerate(rows)}
    entries = {}
    for c, t in enumerate(cols):
        for face, coeff in image(t):
            if face in index:
                key = (index[face], c)
                entries[key] = entries.get(key, 0) + coeff
    return from_entries(len(rows), len(cols), entries)


def row_lists(M):
    return [list(row.items()) for row in M._rows]


class TestBarComplex:
    def test_weight_two_frozen(self):
        assert bar_basis(P23, 2) == {1: [(1, 1)], 2: [(0, 1, 1)]}
        C = relative_bar_complex(P23, 2)
        assert to_dense(C.boundary(2)) == [[2]]
        assert bar_homology(P23, 2) == H({1: (0, (2,))})

    def test_weight_three_frozen(self):
        basis = bar_basis(P23, 3)
        assert basis[1] == [(1, 2), (2, 1)]
        assert basis[2] == [(0, 1, 2), (0, 2, 1), (1, 1, 1)]
        assert basis[3] == [(0, 1, 1, 1)]
        assert bar_homology(P23, 3) == H({1: (0, (3,))})

    def test_gap_weight(self):
        assert bar_homology(P23, 1) == H({0: (1, ()), 1: (1, ())})

    def test_tuple_count_is_power_of_two(self):
        # relative basis plus the all-representable tuples fills 2^m slots
        for m in (4, 6, 7):
            rel = sum(len(lbls) for lbls in bar_basis(P23, m).values())
            sub = sum(1 for q in range(m + 1) for m0 in range(m - q + 1)
                      for rest in _compositions(m - m0, q)
                      if all(is_member(P23, e) for e in (m0,) + rest))
            assert rel + sub == 2 ** m

    def test_euler_characteristic_matches_homology(self):
        for m in range(1, 9):
            C = relative_bar_complex(P23, m)
            chi = sum((-1) ** q * C.dim(q) for q in C.basis)
            assert chi == sum((-1) ** q * r for q, (r, _) in bar_homology(P23, m).groups)

    def test_weight_limit(self):
        # a weight whose complex has more cells than the budget is refused
        # as soon as the count passes it, whatever the weight
        with pytest.raises(ResourceBound, match="^the bar complex in weight "
                           "40 has more than 1000 cells$"):
            relative_bar_complex(P23, 40, budget=1000)

    @pytest.mark.parametrize("a,b", README_PAIRS)
    def test_budget_is_the_cell_count(self, a, b):
        # a budget of exactly the cells builds, one less raises
        p = Params(a, b)
        cells = sum(1 for mask in range(1 << 8)
                    if not all(is_member(p, e) for e in parts(mask, 8)))
        C = relative_bar_complex(p, 8, budget=cells)
        assert sum(C.dim(q) for q in C.basis) == cells
        with pytest.raises(ResourceBound):
            relative_bar_complex(p, 8, budget=cells - 1)

    def test_basis_is_every_composition_outside_the_semigroup(self):
        for a, b in README_PAIRS:
            p = Params(a, b)
            for m in range(1, 9):
                want = {}
                for q in range(m + 1):
                    lbls = sorted(
                        (m0,) + rest for m0 in range(m - q + 1)
                        for rest in _compositions(m - m0, q)
                        if not all(is_member(p, e) for e in (m0,) + rest))
                    if lbls:
                        want[q] = lbls
                assert bar_basis(p, m) == want

    @pytest.mark.parametrize("a,b", README_PAIRS + [(2, 7), (4, 5)])
    def test_boundaries_match_an_entries_dict(self, a, b):
        # the bitwise faces against the tuple faces, row key order included
        p = Params(a, b)
        for m in range(1, 11):
            C = relative_bar_complex(p, m)
            basis = tuple_basis(C, m)
            for q in basis:
                if q - 1 not in basis:
                    continue
                want = entries_matrix(
                    basis[q - 1], basis[q],
                    lambda t: ((face, (-1) ** i) for i, face in _bar_faces(t)))
                got = C.boundary(q)
                assert got == want
                assert row_lists(got) == row_lists(want)

    @pytest.mark.parametrize("a,b", README_PAIRS)
    def test_a_sign_mutant_fails_the_square_check(self, a, b):
        # the top non-cyclic face d_{q-1} keeps the sign of d_{q-2}
        p = Params(a, b)
        for m in range(3, 11):
            bar = relative_bar_complex(p, m)

            def mutant(mask):
                out = list(bar.faces(mask))
                if len(out) >= 3:
                    out[-2] = out[-2][0], out[-3][1]
                return out

            with pytest.raises(ComplexInvalid, match=r"^d_\d+ ∘ d_\d+ != 0$"):
                ChainComplex(bar.basis, mutant)


class TestConnesOperator:
    @pytest.mark.parametrize("a,b", README_PAIRS)
    def test_matches_the_tuple_rotations(self, a, b):
        p = Params(a, b)
        for m in range(1, 11):
            C = relative_bar_complex(p, m)
            basis = tuple_basis(C, m)
            for q in range(-1, m + 1):
                want = entries_matrix(basis.get(q + 1, []), basis.get(q, []),
                                      _connes_terms)
                got = connes_matrix(C, m, q)
                assert got == want
                assert row_lists(got) == row_lists(want)

    def test_frozen_values(self):
        B0 = connes_matrix(relative_bar_complex(P23, 1), 1, 0)   # (1) -> (0, 1)
        assert to_dense(B0) == [[1]]
        # (1,1) -> rotations cancel
        B1 = connes_matrix(relative_bar_complex(P23, 2), 2, 1)
        assert not B1.nnz

    @pytest.mark.parametrize("m", range(1, 8))
    def test_anticommutation_and_square_zero(self, m):
        C = relative_bar_complex(P23, m)
        for q in range(0, m + 1):
            Bq = connes_matrix(C, m, q)
            Bq_prev = connes_matrix(C, m, q - 1)
            anti = product(C.boundary(q + 1), Bq)
            other = product(Bq_prev, C.boundary(q))
            total = {}
            for k, v in list(entries(anti)) + list(entries(other)):
                total[k] = total.get(k, 0) + v
            assert not any(total.values()), f"dB+Bd != 0 at degree {q}"
            assert not product(connes_matrix(C, m, q + 1), Bq).nnz


class TestSmallModel:
    def test_curve_basis_frozen(self):
        assert curve_basis(P23, 5) == {
            0: [(1, 1, 0, 0, 0)],
            1: [(0, 1, 1, 0, 0), (1, 0, 0, 1, 0)],
            2: [(0, 0, 1, 1, 0)],
        }
        assert curve_basis(P23, 6) == {
            0: [(0, 2, 0, 0, 0)],
            1: [(0, 1, 0, 1, 0), (2, 0, 1, 0, 0)],
            2: [(0, 0, 0, 0, 1)],
        }

    @pytest.mark.parametrize("a,b", README_PAIRS)
    def test_koszul_targets_lie_in_the_basis(self, a, b):
        p = Params(a, b)
        for m in range(1, 3 * a * b + 1):
            basis = curve_basis(p, m)
            for q, lbls in basis.items():
                lower = set(basis.get(q - 1, ()))
                for lbl in lbls:
                    assert set(_koszul_image(p, lbl)) <= lower, (m, lbl)

    def test_koszul_boundary_frozen(self):
        # z^[1] at weight 6 peels to 3 x^2 dx - 2 y dy
        C = ChainComplex(curve_basis(P23, 6),
                         lambda lbl: _koszul_image(P23, lbl).items())
        col = to_dense(C.boundary(2))
        # degree-1 basis order: (0,1,0,1,0) = y dy, (2,0,1,0,0) = x^2 dx
        assert col == [[-2], [3]]

    def test_de_rham_anticommutes_with_koszul(self):
        # on the cone: its "dom" block is the identity on the curve model
        for m in range(1, 13):
            C = relative_cone(P23, m)
            degs = list(C.basis) or [0]
            for q in range(0, max(degs) + 2):
                anti = product(C.boundary(q + 1), cone_de_rham_matrix(P23, C, q))
                other = product(cone_de_rham_matrix(P23, C, q - 1), C.boundary(q))
                total = {}
                for k, v in list(entries(anti)) + list(entries(other)):
                    total[k] = total.get(k, 0) + v
                assert not any(total.values())

    def test_de_rham_squares_to_zero(self):
        # cone degree q + 1 holds curve degree q, so the range is one longer
        for m in range(1, 13):
            C = relative_cone(P23, m)
            for q in range(0, 2 * (m // 6) + 4):
                assert not product(cone_de_rham_matrix(P23, C, q + 1),
                                   cone_de_rham_matrix(P23, C, q)).nnz

    def test_parametrization_is_chain_map(self):
        # building the cone runs its d ∘ d check, which is the chain-map
        # check; a wrong one-form coefficient fails it
        for m in range(1, 13):
            relative_cone(P23, m)
        f = parametrization_map(P23, 6)

        def wrong(lbl):
            for tgt, coeff in f(lbl):
                yield tgt, coeff + 1 if tgt[0] == "dt" else coeff

        curve = (curve_basis(P23, 6), lambda lbl: _koszul_image(P23, lbl).items())
        line = ({0: [("t", 6)], 1: [("dt", 5)]}, lambda _: ())
        with pytest.raises(ComplexInvalid, match="^d_2 ∘ d_3 != 0$"):
            ChainComplex(*mapping_cone(curve, line, wrong))

    def test_cone_homology_frozen(self):
        assert cone_homology(P23, 4) == H({1: (0, (2,))})
        assert cone_homology(P23, 5) == H({2: (1, ()), 3: (1, ())})
        assert cone_homology(P23, 6) == H({})


class TestExpectedHomology:
    def test_closed_form_cases(self):
        assert expected_ty_homology(P23, 5) == H({2: (1, ()), 3: (1, ())})
        assert expected_ty_homology(P23, 4) == H({1: (0, (2,))})
        assert expected_ty_homology(P23, 9) == H({3: (0, (3,))})
        assert expected_ty_homology(P23, 12) == H({})
        assert expected_ty_homology(Params(3, 4), 7) == H({2: (1, ()), 3: (1, ())})

    @pytest.mark.parametrize("a,b", [(2, 3), (2, 5), (3, 4)])
    def test_triple_agreement(self, a, b):
        p = Params(a, b)
        for m in range(1, 11):
            want = expected_ty_homology(p, m)
            got = ty_agreement_check(p, m, relative_bar_complex(p, m),
                                     relative_cone(p, m))
            assert got == want

    @pytest.mark.parametrize("model", ["bar", "cone"])
    def test_disagreeing_model_raises(self, model):
        # a weight-4 model (H_1 = Z/2) in place of the weight-5 one
        bar_m, cone_m = (4, 5) if model == "bar" else (5, 4)
        with pytest.raises(TheoremViolation,
                           match=rf"^{model} homology .* at \(a,b,m\)=\(2,3,5\)"):
            ty_agreement_check(P23, 5, relative_bar_complex(P23, bar_m),
                               relative_cone(P23, cone_m))


class TestConeBuilds:
    """A cone's sides and inner cones stay cells: each cone builds one
    ChainComplex, its outermost."""

    @staticmethod
    def builds(monkeypatch):
        calls = []
        real = ChainComplex.__init__

        def counted(self, *args):
            calls.append(1)
            real(self, *args)

        monkeypatch.setattr(ChainComplex, "__init__", counted)
        return calls

    def test_relative_cone(self, monkeypatch):
        calls = self.builds(monkeypatch)
        for m in range(1, 13):
            relative_cone(P23, m)
            assert len(calls) == 1, m
            calls.clear()

    def test_expected_ty_homology(self, monkeypatch):
        calls = self.builds(monkeypatch)
        for a, b in DEFAULT_PAIRS:
            for m in range(1, 13):
                expected_ty_homology(Params(a, b), m)
                assert len(calls) == 1, (a, b, m)
                calls.clear()

    def test_check_generator(self, monkeypatch):
        # the 2-skeleton complex X and the cone of Z -> X
        chain, sigma = generator_cycle(P23, 5), build_sigma(P23, 5)
        calls = self.builds(monkeypatch)
        _check_generator(P23, 5, chain, sigma)
        assert len(calls) == 2


class TestConnesFactor:
    @pytest.mark.parametrize("a,b,m", [
        (2, 3, 1), (2, 3, 5), (2, 3, 7),
        (2, 5, 3), (2, 5, 7), (2, 5, 9),
        (3, 4, 5), (3, 4, 7),
        (3, 5, 8),
    ])
    def test_factor_is_weight_both_models(self, a, b, m):
        p = Params(a, b)
        bar, cone = relative_bar_complex(p, m), relative_cone(p, m)
        assert abs(connes_factor_bar(p, m, bar)) == m
        assert abs(connes_factor_small(p, m, cone)) == m

    def test_divisible_weight_rejected(self):
        with pytest.raises(PreconditionViolation):
            connes_factor_bar(P23, 6, relative_bar_complex(P23, 6))
        with pytest.raises(PreconditionViolation):
            connes_factor_small(P23, 9, relative_cone(P23, 9))

    def test_de_rham_image_of_odd_degree_is_cycle(self):
        # every chain of degree 2l+1 is a cycle: the cone there is Z with
        # zero boundary (the proof is in connes_factor_small's docstring),
        # spanned by the top form dx dy z^[l-1] for l >= 1 and by dt at l = 0
        for a, b in README_PAIRS:
            p = Params(a, b)
            for m in range(1, 30):
                if m % a == 0 or m % b == 0:
                    continue
                l = ell(p, m)
                C = relative_cone(p, m)
                (label,) = C.basis[2 * l + 1]
                if l:
                    side, (_, _, ex, ey, r) = label
                    assert (side, ex, ey, r) == ("dom", 1, 1, l - 1)
                else:
                    assert label == ("cod", ("dt", m - 1))
                assert C.boundary(2 * l + 1).nnz == 0

    @pytest.mark.parametrize("a,b,m,bar,small", [
        (2, 3, 1, 1, -1), (2, 3, 5, 5, -5), (2, 3, 7, 7, -7),
        (2, 3, 11, -11, -11),
        (2, 5, 1, 1, -1), (2, 5, 3, 3, -3), (2, 5, 7, -7, -7),
        (2, 5, 9, -9, -9), (2, 5, 11, 11, -11),
        (3, 4, 1, 1, -1), (3, 4, 2, 2, -2), (3, 4, 5, 5, -5),
        (3, 4, 7, 7, -7), (3, 4, 10, -10, -10), (3, 4, 11, 11, -11),
        (3, 5, 1, 1, -1), (3, 5, 2, 2, -2), (3, 5, 4, 4, -4),
        (3, 5, 7, 7, -7), (3, 5, 8, -8, 8), (3, 5, 11, -11, 11),
        # past the benchmark's reports: m = 13 at the README pairs, and
        # every weight up to 13 at two pairs outside them
        (2, 3, 13, 13, -13), (2, 5, 13, 13, -13), (3, 4, 13, 13, -13),
        (3, 5, 13, 13, 13),
        (2, 7, 1, 1, -1), (2, 7, 3, 3, -3), (2, 7, 5, 5, -5),
        (2, 7, 9, -9, -9), (2, 7, 11, 11, -11), (2, 7, 13, -13, -13),
        (4, 5, 1, 1, -1), (4, 5, 2, 2, -2), (4, 5, 3, 3, -3),
        (4, 5, 6, -6, -6), (4, 5, 7, 7, -7), (4, 5, 9, 9, -9),
        (4, 5, 11, 11, -11), (4, 5, 13, 13, -13),
    ])
    def test_signed_factors_frozen(self, a, b, m, bar, small):
        # the signs depend on the generators the engines pick, and so on
        # the pivot order of every Smith form; the prop51 report rows carry
        # them, so a flip changes the report
        p = Params(a, b)
        got = (connes_factor_bar(p, m, relative_bar_complex(p, m)),
               connes_factor_small(p, m, relative_cone(p, m)))
        assert got == (bar, small)
