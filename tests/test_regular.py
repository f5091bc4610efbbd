"""Constant models, nearby cycles, weight filtrations, regularity."""

from fractions import Fraction

import pytest

from wildcycle.connection import ExpFactor, LambdaConnection
from wildcycle.corpus import build_corpus
from wildcycle.cyclotomic import Cyc
from wildcycle.errors import (InternalInvariantError, NotStarShaped,
                              WildcycleError)
from wildcycle.exponents import ComplexExponent, star
from wildcycle.matrices import LaurentMatrix
from wildcycle.params import ParamScalar
from wildcycle.regular import (EigenLabel, ModelBlock, RegularModel,
                               bernstein_product, monodromy_filtration,
                               psi_beta, reduce_to_constant, regularity_test,
                               v0_lattice_fiber_dim,
                               weight_filtration_subspaces)
from wildcycle.series import LaurentSeries


def const(val, q=1, trunc=10):
    return LaurentSeries.monomial(val, 0, q, trunc)


def zero(q=1, trunc=10):
    return LaurentSeries.zero(q, trunc)


def conn(rows, q=1):
    return LambdaConnection(LaurentMatrix(rows, q), q)


B = ComplexExponent.of(Fraction(-1, 3), 0)
B2 = ComplexExponent.of(Fraction(-1, 2), 1)


# -- reduce_to_constant ---------------------------------------------------------

def test_already_constant_diagonal():
    m = conn([[const(star(B)), zero()], [zero(), const(star(B2))]])
    model = reduce_to_constant(m)
    assert [b.render() for b in model.classes()] == \
        [B2.render(), B.render()] or len(model.classes()) == 2


def test_wrong_shape_eigenvalue_rejected():
    m = conn([[const(ParamScalar.lam() ** 3)]])
    with pytest.raises(NotStarShaped):
        reduce_to_constant(m)


def test_residue_labels_from_two_root_sets(monkeypatch):
    # a label's values at z = 0 and 1 fix it: one residue, two root finds
    from wildcycle import regular
    calls = []
    find = regular.roots_in_field

    def spy(*args):
        calls.append(args)
        return find(*args)

    monkeypatch.setattr(regular, "roots_in_field", spy)
    m = conn([[const(star(B2)), const(1), zero()],
              [zero(), const(star(B2)), zero()],
              [zero(), zero(), const(star(B) + ParamScalar.lam())]])
    spectrum = regular.residue_spectrum(m.action.coefficient_matrix(0), 4)
    assert len(calls) == 2
    assert sorted((label.render(), mult) for label, mult in spectrum) == [
        (star(B2).render(), 2), ((star(B) + ParamScalar.lam()).render(), 1)]


def test_resonant_pair_merges_with_log():
    # the t-coupling from the (beta+1)-column survives as nilpotent data
    rows = [[const(star(B)), LaurentSeries.monomial(1, 1, 1, 10)],
            [zero(), const(star(B + 1))]]
    model = reduce_to_constant(conn(rows))
    datum = psi_beta(model, B)
    assert datum.dim == 2
    assert datum.primitive_dims == {1: 1}
    # oracle: the explicit 2x2 order-by-order conjugation equation has the
    # obstruction 1 - z at order one, which vanishes at the model point
    from wildcycle.params import ParamScalar
    ob = star(B) - star(B + 1) + ParamScalar.lam()
    assert ob.eval(Cyc.rational(1)).is_zero() and not ob.is_zero()


def test_resonant_pair_constant_coupling_splits():
    rows = [[const(star(B)), const(1)],
            [zero(), const(star(B + 1))]]
    model = reduce_to_constant(conn(rows))
    datum = psi_beta(model, B)
    assert datum.dim == 2 and datum.weight_dims == {0: 2}


def test_resonance_depends_on_model_point():
    # values b and b+1 differ by 1*z0 at z0=1 (log) but not at z0=2 (split);
    # values b and b+2 behave the other way around
    t1 = LaurentSeries.monomial(1, 1, 1, 10)
    near = conn([[const(star(B)), t1], [zero(), const(star(B + 1))]])
    far = conn([[const(star(B)), t1], [zero(), const(star(B + 2))]])
    assert psi_beta(reduce_to_constant(near, lambda0=1), B).primitive_dims \
        == {1: 1}
    assert psi_beta(reduce_to_constant(near, lambda0=2), B).weight_dims \
        == {0: 2}
    assert psi_beta(reduce_to_constant(far, lambda0=1), B).weight_dims \
        == {0: 2}
    assert psi_beta(reduce_to_constant(far, lambda0=2), B).primitive_dims \
        == {1: 1}


def test_resonant_distance_two_at_model_point_one():
    t2 = LaurentSeries.monomial(1, 2, 1, 10)
    m = conn([[const(star(B)), t2], [zero(), const(star(B + 2))]])
    datum = psi_beta(reduce_to_constant(m, lambda0=1), B)
    assert datum.primitive_dims == {1: 1}


def test_three_member_class_shears_onto_its_first_block():
    # at z0 = 1 the values b, b+1, b+2 form one class; the frame starts at
    # the highest level, and a t^s-rescale moves a value by s
    t1 = LaurentSeries.monomial(1, 1, 1, 10)
    m = conn([[const(star(B)), t1, zero()],
              [zero(), const(star(B + 1)), t1],
              [zero(), zero(), const(star(B + 2))]])
    model = reduce_to_constant(m, lambda0=1)
    assert [b.sheared_by for b in model.blocks] == [0, 1, 2]
    assert psi_beta(model, B).primitive_dims == {2: 1}


def test_nonresonant_t_coupling_eliminated():
    rows = [[const(star(B)), zero()],
            [LaurentSeries.monomial(1, 1, 1, 10), const(star(B + 1))]]
    model = reduce_to_constant(conn(rows))
    datum = psi_beta(model, B)
    assert datum.dim == 2 and datum.weight_dims == {0: 2}


def test_pole_removed_by_saturation():
    # apparent pole on a regular module
    rows = [[zero(), LaurentSeries.monomial(1, -2, 1, 10)],
            [zero(), zero()]]
    model = reduce_to_constant(conn(rows))
    assert model.rank == 2


# -- psi ------------------------------------------------------------------------

def test_psi_jordan_block():
    rows = [[const(star(B2)), zero()], [const(1), const(star(B2))]]
    model = reduce_to_constant(conn(rows))
    datum = psi_beta(model, B2)
    assert datum.dim == 2
    assert datum.weight_dims == {1: 1, -1: 1}
    assert datum.primitive_dims == {1: 1}


def test_psi_absent_exponent_is_zero():
    model = reduce_to_constant(conn([[const(star(B))]]))
    datum = psi_beta(model, ComplexExponent.of(Fraction(-3, 4), 0))
    assert datum.dim == 0


def test_psi_additive_over_sums():
    m1 = conn([[const(star(B))]])
    m2 = conn([[const(star(B)), zero()], [const(1), const(star(B))]])
    ds = m1.direct_sum(m2)
    model = reduce_to_constant(ds)
    datum = psi_beta(model, B)
    assert datum.dim == 3
    assert datum.weight_dims == {1: 1, 0: 1, -1: 1}


def test_psi_refuses_a_block_that_is_not_nilpotent():
    # star(0) is 0 at z0 = 1, so the block [[2]] leaves N = [[-2]]
    label = EigenLabel(ComplexExponent.of(0), 0, Fraction(0))
    model = RegularModel(matrix=[[ParamScalar.rational(2)]],
                         blocks=[ModelBlock(label=label, size=1, start=0)],
                         lambda0=Cyc.rational(1))
    with pytest.raises(InternalInvariantError, match="not nilpotent"):
        psi_beta(model, label.cls())


def test_psi_dimension_sums_to_rank():
    rows = [[const(star(B)), zero(), zero()],
            [const(1), const(star(B)), zero()],
            [zero(), zero(), const(star(B2))]]
    model = reduce_to_constant(conn(rows))
    total = sum(psi_beta(model, beta).dim for beta in model.classes())
    assert total == 3


# -- monodromy filtration --------------------------------------------------------

def partitions(n, mx=None):
    if mx is None:
        mx = n
    if n == 0:
        yield []
        return
    for k in range(min(n, mx), 0, -1):
        for rest in partitions(n - k, k):
            yield [k] + rest


def nilpotent_of_type(part):
    d = sum(part)
    mat = [[Fraction(0)] * d for _ in range(d)]
    pos = 0
    for size in part:
        for i in range(size - 1):
            mat[pos + i + 1][pos + i] = Fraction(1)
        pos += size
    return mat


def test_monodromy_zero_matrix():
    wd, pd, _ = monodromy_filtration([[Fraction(0)] * 3 for _ in range(3)])
    assert wd == {0: 3} and pd == {0: 3}


def test_monodromy_rejects_a_matrix_that_is_not_nilpotent():
    swap = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    for mat in ([[Cyc.one()]], swap):
        with pytest.raises(WildcycleError, match="not nilpotent"):
            monodromy_filtration(mat)


def test_monodromy_all_jordan_types_to_dim5():
    for d in range(1, 6):
        for part in partitions(d):
            nil = nilpotent_of_type(part)
            wd, pd, chains = monodromy_filtration(nil)
            expected_pd = {}
            for size in part:
                expected_pd[size - 1] = expected_pd.get(size - 1, 0) + 1
            assert pd == expected_pd
            assert sum(wd.values()) == d
            # symmetry and primitive relation
            for level in wd:
                assert wd[level] == wd.get(-level, 0)
            for level, count in pd.items():
                assert count == wd.get(level, 0) - wd.get(level + 2, 0)
            # the closed-formula filtration agrees
            subs = weight_filtration_subspaces(nil)
            for k in range(-d - 1, d + 2):
                grk = len(subs.get(k, [])) - len(subs.get(k - 1, []))
                assert grk == wd.get(k, 0)


def test_monodromy_defining_properties_as_matrices():
    from wildcycle.matrices import apply_mat
    nil = nilpotent_of_type([3, 1])
    subs = weight_filtration_subspaces(nil)

    def in_span(vectors, v):
        from wildcycle.matrices import const_rank
        if not vectors:
            return all(x == 0 for x in v)
        cols = [list(c) for c in vectors]
        mat = [[cols[j][i] for j in range(len(cols))] for i in range(len(v))]
        aug = [[cols[j][i] for j in range(len(cols))] + [v[i]]
               for i in range(len(v))]
        return const_rank(aug) == const_rank(mat)

    for k in range(-4, 5):
        for vec in subs.get(k, []):
            assert in_span(subs.get(k - 2, []), apply_mat(nil, vec))


# -- bernstein / v0 / regularity ---------------------------------------------------

def test_bernstein_products():
    model = reduce_to_constant(conn([[const(star(B))]]))
    factors = bernstein_product(model)
    assert len(factors) == 1 and factors[0].power == 1
    rows = [[const(star(B2)), zero()], [const(1), const(star(B2))]]
    model2 = reduce_to_constant(conn(rows))
    factors2 = bernstein_product(model2)
    assert len(factors2) == 1 and factors2[0].power == 2
    both = reduce_to_constant(conn(
        [[const(star(B)), zero()], [zero(), const(star(B2))]]))
    assert len(bernstein_product(both)) == 2


def test_v0_dimension_examples():
    irregular = conn([[LaurentSeries.monomial(1, -1, 1, 10)]]) \
        .restrict_lambda(0)
    assert v0_lattice_fiber_dim(irregular) == 0
    regular = conn([[const(Fraction(2, 5))]]).restrict_lambda(0)
    assert v0_lattice_fiber_dim(regular) == 1
    mixed = conn([[LaurentSeries.monomial(1, -1, 1, 10), zero()],
                  [zero(), const(Fraction(1, 3))]]).restrict_lambda(0)
    assert v0_lattice_fiber_dim(mixed) == 1
    with pytest.raises(WildcycleError):
        v0_lattice_fiber_dim(conn([[const(1)]]))


def test_regularity_three_ways():
    nil = conn([[const(star(B)), zero()], [const(1), const(star(B2))]])
    res = regularity_test(nil)
    assert res["agree"] and res["regular"]
    twisted = LambdaConnection.trivial(1, 1, 10) \
        .twist_exponential(ExpFactor(1, {1: 1}), 1)
    res2 = regularity_test(twisted)
    assert res2["agree"] and not res2["regular"]
    ramified = conn([[zero(), const(1)],
                     [LaurentSeries.monomial(1, -1, 1, 10), zero()]])
    res3 = regularity_test(ramified)
    assert res3["agree"] and not res3["regular"]


@pytest.mark.parametrize("name, trunc", [("irr-rank3-two-poles", 6),
                                         ("irr-rank5-three", 8)])
def test_regularity_certified_where_the_decomposition_is(name, trunc):
    # the Krylov system is solved directly, without inverting its matrix
    case = next(c for c in build_corpus(11, trunc=trunc) if c.name == name)
    res = regularity_test(case.connection)
    assert res["agree"] and res["regular"] is case.regular is False
