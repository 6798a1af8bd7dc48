"""Cell modules, the bilinear form, and irreducible head dimensions."""

import dataclasses
import gc
import importlib
import itertools
import math
import pkgutil
import random
import sys
import threading
from fractions import Fraction

import pytest

import heckelink
from heckelink import clear_caches, hecke, specht
from heckelink.braid import BraidWord, Permutation
from heckelink.coefficients import PrimeField, Rationals, one_parameter_context, quantum_e
from heckelink.linalg import EchelonBasis
from heckelink.specht import (
    ProportionalityError,
    SpechtContext,
    SpechtError,
    SpechtModule,
    count_standard_tableaux,
    dim_D_lambda,
    ideal_I,
    specht_module,
    young_subgroup,
)
from heckelink.trace import (
    Partition,
    decompose_closure,
    e_restricted,
    partitions_of,
    strictly_dominates,
)
from reference import (
    bilinear_form, closure_ideal, closure_quotient, cofactor, contains, coset_rows,
    gram_entry, insert_element, kernel_basis, left_multiply_generator, m_lambda,
    matrix_rank, module_basis_M, reduce_element, reference_product, rows_as_elements,
    star, to_sparse,
)


class TestSizeBudget:
    """Cell modules above the size budget are refused before any n!-length
    work: the Murphy inserts into the ideal must never run."""

    @pytest.fixture
    def no_ideal(self, monkeypatch):
        class IdealBuilt(Exception):
            pass

        def refuse(*args):
            raise IdealBuilt

        monkeypatch.setattr(specht, "_insert_murphy", refuse)
        return IdealBuilt

    def test_n_8_is_refused_and_names_the_limit(self, no_ideal):
        sctx = SpechtContext.at_value(8, PrimeField(3), 2)
        with pytest.raises(specht.SpechtSizeError, match=r"n <= 7: n = 8 needs 40320"):
            specht_module(Partition((8,)), sctx)
        assert issubclass(specht.SpechtSizeError, SpechtError)

    def test_n_7_is_allowed(self, no_ideal):
        with pytest.raises(no_ideal):
            specht_module(Partition((7,)), SpechtContext.at_value(7, PrimeField(3), 2))

    def test_public_builders_refuse_n_8(self, monkeypatch):
        # ideal_I, module_basis_M and gram_entry refuse before the coordinate
        # order of the n! permutations is built
        class CoordinatesBuilt(Exception):
            pass

        def refuse(*args):
            raise CoordinatesBuilt

        monkeypatch.setattr(hecke, "_rank_keys", refuse)
        sctx = SpechtContext.at_value(8, PrimeField(3), 2)
        one = sctx.hecke_context().identity()
        builders = (ideal_I, module_basis_M, lambda *a: gram_entry(one, one, *a))
        for build in builders:
            with pytest.raises(specht.SpechtSizeError, match=r"n <= 7: n = 8 needs"):
                build(Partition((8,)), sctx)

    def test_cli_exits_2_with_one_line(self, no_ideal, capsys):
        from heckelink.cli import main

        assert main(["specht", "--n", "9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "n <= 7" in captured.err

    def test_a_huge_n_is_refused_without_its_factorial(self, no_ideal, capsys):
        # 2000! has more digits than str() converts by default
        n = 2000
        sctx = SpechtContext.at_value(n, PrimeField(3), 2)
        with pytest.raises(specht.SpechtSizeError, match=rf"n = {n} needs {n}! coordinates"):
            specht_module(Partition((n,)), sctx)
        from heckelink.cli import main

        assert main(["specht", "--n", str(n)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "n <= 7" in captured.err

    def test_cli_refuses_before_listing_partitions(self, monkeypatch, capsys):
        # p(80) = 15,796,476 partitions would be listed before the first
        # module refused n = 80
        from heckelink import cli

        def refuse(n):
            raise AssertionError(f"partitions_of({n}) was called")

        monkeypatch.setattr(cli, "partitions_of", refuse)
        assert cli.main(["specht", "--n", "80"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "n <= 7" in captured.err


class TestYoungSubgroup:
    def test_trivial(self):
        assert young_subgroup(Partition((1, 1, 1))) == [Permutation.identity(3)]

    def test_full(self):
        assert len(young_subgroup(Partition((2,)))) == 2

    def test_block_and_fixed_point(self):
        perms = {w.images for w in young_subgroup(Partition((2, 1)))}
        assert perms == {(1, 2, 3), (2, 1, 3)}

    def test_order_is_product_of_factorials(self):
        for lam in partitions_of(4):
            expected = math.prod(math.factorial(p) for p in lam.parts)
            assert len(young_subgroup(lam)) == expected


class TestMLambda:
    def test_trivial_is_identity(self):
        sctx = SpechtContext.generic(2)
        assert m_lambda(Partition((1, 1)), sctx) == sctx.hecke_context().identity()

    def test_two_element_sum(self):
        sctx = SpechtContext.generic(2)
        m = m_lambda(Partition((2,)), sctx)
        assert set(w.images for w in m.terms) == {(1, 2), (2, 1)}
        assert all(c == 1 for c in m.terms.values())

    def test_embedded(self):
        sctx = SpechtContext.generic(3)
        m = m_lambda(Partition((2, 1)), sctx)
        assert set(w.images for w in m.terms) == {(1, 2, 3), (2, 1, 3)}

    def test_generator_absorbs_into_m(self):
        # T_s m = q m for s inside the Young subgroup
        sctx = SpechtContext.generic(3)
        m = m_lambda(Partition((2, 1)), sctx)
        assert left_multiply_generator(m, 1) == m.scalar_mul(sctx.q)


class TestSubspaces:
    def test_dim_M_trivial_partition(self):
        sctx = SpechtContext.generic(3)
        assert len(module_basis_M(Partition((1, 1, 1)), sctx)) == 6

    def test_dim_M_is_multinomial(self):
        for n in (2, 3, 4):
            sctx = SpechtContext.generic(n)
            for lam in partitions_of(n):
                expected = math.factorial(n) // math.prod(
                    math.factorial(p) for p in lam.parts
                )
                assert len(module_basis_M(lam, sctx)) == expected

    def test_dim_M_row_is_one(self):
        sctx = SpechtContext.generic(2)
        assert len(module_basis_M(Partition((2,)), sctx)) == 1

    def test_ideal_of_maximal_partition_is_zero(self):
        sctx = SpechtContext.generic(3)
        assert len(ideal_I(Partition((3,)), sctx)) == 0

    def test_M_is_a_left_ideal_containing_m(self):
        sctx = SpechtContext.generic(4)
        for lam in partitions_of(4):
            basis = module_basis_M(lam, sctx)
            assert contains(basis, sctx, m_lambda(lam, sctx))
            for row in rows_as_elements(basis, sctx)[:4]:
                for i in range(1, 4):
                    assert contains(basis, sctx, left_multiply_generator(row, i))

    def test_ideal_is_two_sided(self):
        rng = random.Random(30)
        sctx = SpechtContext.generic(4)
        ideal = ideal_I(Partition((2, 1, 1)), sctx)
        ctx = sctx.hecke_context()
        for row in rows_as_elements(ideal, sctx)[:6]:
            for i in range(1, 4):
                assert contains(ideal, sctx, left_multiply_generator(row, i))
                assert contains(ideal, sctx, row * ctx.generator_image(i))

    def test_returned_bases_are_copies(self):
        sctx = SpechtContext.generic(3)
        lam = Partition((2, 1))
        ideal_dim = len(ideal_I(lam, sctx))
        module_dim = len(module_basis_M(lam, sctx))
        assert insert_element(ideal_I(lam, sctx), sctx, m_lambda(lam, sctx)) is not None
        identity = sctx.hecke_context().identity()
        assert insert_element(module_basis_M(lam, sctx), sctx, identity) is not None
        assert len(ideal_I(lam, sctx)) == ideal_dim
        assert len(module_basis_M(lam, sctx)) == module_dim

    @pytest.fixture
    def folds(self, monkeypatch):
        """The letters of every fold, recorded by a patch of hecke.fold_letter."""
        letters = []
        fold = hecke.fold_letter

        def counting_fold(*args, **kwargs):
            letters.append(args[1])
            return fold(*args, **kwargs)

        monkeypatch.setattr(hecke, "fold_letter", counting_fold)
        return letters

    def test_murphy_vectors_share_prefix_folds(self, folds):
        # one prefix-tree walk per coset row: 282 generator folds over the
        # partitions of 5, where folding each d(t)^{-1} on its own takes 590
        sctx = SpechtContext.at_value(5, PrimeField(3), 2)
        for lam in partitions_of(5):
            ideal_I(lam, sctx)
        assert len(folds) == 282

    def test_one_patch_sees_every_fold(self, folds, request):
        # the Murphy walks of the ideal and the generator action on the cell
        # module both reach the kernel as hecke.fold_letter: 32 folds in the
        # walks and 24 for the four generators on the six basis vectors
        clear_caches()
        request.addfinalizer(clear_caches)
        sctx = SpechtContext.at_value(5, PrimeField(3), 2)
        specht_module(Partition((3, 1, 1)), sctx)
        assert len(folds) == 56

    def test_echelon_pivots_increase(self):
        sctx = SpechtContext.generic(4)
        basis = module_basis_M(Partition((2, 2)), sctx)
        pivots = basis.pivots
        assert pivots == sorted(pivots)
        assert len(set(pivots)) == len(pivots)


class TestMurphyAgainstClosure:
    @pytest.mark.parametrize(
        "make, max_n",
        [
            (SpechtContext.generic, 4),
            (lambda n: SpechtContext.at_value(n, PrimeField(3), 2), 5),
            (lambda n: SpechtContext.at_value(n, PrimeField(5), 2), 5),
            (lambda n: SpechtContext.at_value(n, Rationals(), -1), 5),
        ],
        ids=["Q(q)", "F_3 at q=2", "F_5 at q=2", "Q at q=-1"],
    )
    def test_ideal_and_module_equal_the_closure(self, make, max_n):
        for n in range(1, max_n + 1):
            sctx = make(n)
            for lam in partitions_of(n):
                murphy = ideal_I(lam, sctx)
                closure = closure_ideal(lam, sctx)
                assert murphy.pivots == closure.pivots
                assert murphy.sparse_rows() == closure.sparse_rows()
                quotient = closure_quotient(lam, sctx, closure)
                module = specht_module(lam, sctx)
                assert module.basis == tuple(rows_as_elements(quotient, sctx))

    def test_a_missing_standard_tableau_is_caught(self, monkeypatch, request):
        # the shape data is cached per partition: empty it so that the fault
        # reaches the build, and again so that no later test reads it
        clear_caches()
        request.addfinalizer(clear_caches)
        standard = specht._standard_representatives
        monkeypatch.setattr(
            specht, "_standard_representatives", lambda lam: standard(lam)[:-1]
        )
        sctx = SpechtContext.at_value(4, PrimeField(3), 2)
        for lam in partitions_of(4):
            with pytest.raises(ProportionalityError, match="dimension"):
                specht_module.__wrapped__(lam, sctx)

    def test_standard_representatives_count_standard_tableaux(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                reps = specht._standard_representatives(lam)
                assert reps[0] == Permutation.identity(n)
                assert len(reps) == count_standard_tableaux(lam)


class TestRankKeys:
    def test_tables_equal_the_permutation_methods(self):
        for n in range(1, 8):
            keys = hecke._rank_keys(n)
            perms = map(Permutation, itertools.permutations(range(1, n + 1)))
            order = tuple(sorted(perms, key=lambda w: (w.length(), w.images)))
            # rank and permutation are inverse bijections between the ranks
            # 0, ..., n! - 1 and S_n, and rank 0 is the identity
            assert tuple(map(keys.permutation, range(len(order)))) == order
            assert [keys.rank(w) for w in order] == list(range(len(order)))
            assert keys.permutation(0) == Permutation.identity(n)
            assert keys.rank(Permutation.identity(n)) == 0
            # the permutation keys are the permutations themselves
            assert all(
                hecke.PERMUTATION_KEYS.rank(w) is w
                and hecke.PERMUTATION_KEYS.permutation(w) is w
                for w in order
            )
            for r, w in enumerate(order):
                for i in range(1, n):
                    step, ascent = keys.generator(i, False)
                    assert step(r) == keys.rank(w.times_transposition(i))
                    assert ascent(r) == w.right_ascent(i)
                    step, ascent = keys.generator(i, True)
                    assert step(r) == keys.rank(w.transposition_times(i))
                    assert ascent(r) == w.left_ascent(i)

    @pytest.mark.parametrize(
        "make, max_n",
        [
            (lambda n: SpechtContext.at_value(n, PrimeField(3), 2), 5),
            (lambda n: SpechtContext.at_value(n, Rationals(), Fraction(1, 2)), 5),
            (SpechtContext.generic, 4),
        ],
        ids=["F_3 at q=2", "Q at q=1/2", "Q(q)"],
    )
    def test_rank_walks_equal_the_permutation_walks(self, make, max_n):
        # the Murphy walk of every coset row, and the left generator steps of
        # its products, in rank keys and through the permutations
        for n in range(1, max_n + 1):
            sctx = make(n)
            fc = sctx.field_context
            one = fc.field.one()
            keys = hecke._rank_keys(n)
            for lam in partitions_of(n):
                standard = specht._standard_representatives(lam)
                inverses = dict.fromkeys(d.inverse() for d in standard)
                rows, inverse_ranks = specht._shape(lam)
                assert inverse_ranks == tuple(map(keys.rank, inverses))
                standard_rows = coset_rows(lam, sctx, standard)
                assert [to_sparse(row, sctx) for row in standard_rows] == [
                    dict.fromkeys(ranks, one) for ranks in rows
                ]
                for row, ranks in zip(standard_rows, rows):
                    walked = hecke._prefix_products(row.terms, inverses, fc)
                    expected = {
                        keys.rank(v): {keys.rank(w): c for w, c in cur.items()}
                        for v, cur in walked
                    }
                    ranked = dict(hecke._prefix_products(
                        dict.fromkeys(ranks, one), dict.fromkeys(inverse_ranks), fc, keys
                    ))
                    assert ranked == expected
                    for v, cur in ranked.items():
                        x = specht._from_sparse(cur, sctx)
                        for i in range(1, n):
                            assert hecke.fold_letter(
                                cur, i, fc, keys, left=True
                            ) == to_sparse(left_multiply_generator(x, i), sctx)


_HELD_IDEAL_FIELDS = {
    "F_3 at q=2": (lambda n: SpechtContext.at_value(n, PrimeField(3), 2), 5),
    "F_5 at q=2": (lambda n: SpechtContext.at_value(n, PrimeField(5), 2), 5),
    "Q at q=-1": (lambda n: SpechtContext.at_value(n, Rationals(), -1), 5),
    "Q at q=1/2": (lambda n: SpechtContext.at_value(n, Rationals(), Fraction(1, 2)), 5),
    "Q(q)": (SpechtContext.generic, 4),
}


class TestHeldIdeal:
    """``specht_module`` grows one held ideal from shape to shape; every
    module must equal the one built from an empty ideal."""

    @staticmethod
    def _jobs(name):
        make, max_n = _HELD_IDEAL_FIELDS[name]
        return [
            (lam, sctx)
            for sctx in (make(n) for n in range(1, max_n + 1))
            for lam in partitions_of(sctx.n)
        ]

    @pytest.mark.parametrize("order", ["forward", "reversed", "shuffled"])
    @pytest.mark.parametrize(
        "pair",
        [("F_3 at q=2", "F_5 at q=2"), ("Q at q=-1", "Q at q=1/2"), ("Q(q)", "F_3 at q=2")],
        ids=" & ".join,
    )
    def test_any_shape_order_builds_the_fresh_modules(self, pair, order):
        rng = random.Random(17)
        runs = []
        for name in pair:
            jobs = self._jobs(name)
            if order == "reversed":
                jobs.reverse()
            elif order == "shuffled":
                rng.shuffle(jobs)
            runs.append(jobs)
        fresh = {}
        for lam, sctx in runs[0] + runs[1]:
            clear_caches()
            module = specht_module(lam, sctx)
            fresh[lam, sctx] = (module.basis, module.action, module.seed, module.gram)
        # riffle the two contexts' runs, each in its own order
        clear_caches()
        while any(runs):
            lam, sctx = rng.choice([run for run in runs if run]).pop(0)
            module = specht_module.__wrapped__(lam, sctx)
            built = (module.basis, module.action, module.seed, module.gram)
            assert built == fresh[lam, sctx], (lam.render(), sctx)
            [(held_sctx, shapes, ideal)] = specht._held_ideal
            assert held_sctx == sctx
            assert shapes == {mu for mu in partitions_of(sctx.n) if strictly_dominates(mu, lam)}
            assert ideal.sparse_rows() == ideal_I(lam, sctx).sparse_rows()

    def test_concurrent_builds_never_share_the_ideal(self):
        # staggered forward runs over one field, so that every thread could
        # grow an ideal that another is still reading
        jobs = self._jobs("F_3 at q=2")
        fresh = {job: specht_module.__wrapped__(*job) for job in jobs}
        results, errors = [], []

        def build(order):
            try:
                for job in order:
                    results.append((job, specht_module.__wrapped__(*job)))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        orders = [(jobs[k:] + jobs[:k]) * 2 for k in range(8)]
        threads = [threading.Thread(target=build, args=(o,)) for o in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == sum(map(len, orders))
        assert all(module == fresh[job] for job, module in results)
        assert len(specht._held_ideal) <= 1

    def test_a_table_inserts_each_shape_once(self, monkeypatch):
        inserted = []
        insert = specht._insert_murphy

        def recording_insert(basis, sctx, shapes):
            inserted.extend(shapes)
            insert(basis, sctx, shapes)

        monkeypatch.setattr(specht, "_insert_murphy", recording_insert)
        sctx = SpechtContext.at_value(6, PrimeField(3), 2)
        clear_caches()
        shapes = partitions_of(6)
        for lam in shapes:
            specht_module(lam, sctx)
        assert inserted == list(shapes[:-1])
        # a shape whose dominating set misses a held shape starts anew
        specht_module.__wrapped__(Partition((5, 1)), sctx)
        assert inserted[-1:] == [Partition((6,))]


class TestSpechtModules:
    def test_dimensions_match_tableaux_count(self):
        for n in (2, 3, 4):
            sctx = SpechtContext.generic(n)
            for lam in partitions_of(n):
                assert specht_module(lam, sctx).dimension == count_standard_tableaux(lam)

    def test_one_dimensional_extremes(self):
        sctx = SpechtContext.generic(4)
        assert specht_module(Partition((4,)), sctx).dimension == 1
        assert specht_module(Partition((1, 1, 1, 1)), sctx).dimension == 1

    def test_dimension_squares_sum_to_factorial(self):
        for n in (2, 3, 4):
            sctx = SpechtContext.generic(n)
            total = sum(
                specht_module(lam, sctx).dimension ** 2 for lam in partitions_of(n)
            )
            assert total == math.factorial(n)

    def test_action_satisfies_defining_relations(self):
        sctx = SpechtContext.generic(4)
        field = sctx.field_context.field
        q = sctx.q
        for lam in partitions_of(4):
            mod = specht_module(lam, sctx)
            d = mod.dimension
            zero = field.zero()
            ident = [
                [field.one() if r == c else zero for c in range(d)] for r in range(d)
            ]

            def mm(a, b):
                from heckelink.specht import _mat_mul

                return _mat_mul(a, b, zero)

            gens = [mod.generator_matrix(i) for i in range(1, 4)]
            # quadratic: T^2 = (q - 1) T + q
            for g in gens:
                lhs = mm(g, g)
                rhs = tuple(
                    tuple(
                        (q - 1) * g[r][c] + (q * ident[r][c] if r == c else zero)
                        for c in range(d)
                    )
                    for r in range(d)
                )
                assert lhs == rhs
            # braid and commutation
            assert mm(mm(gens[0], gens[1]), gens[0]) == mm(mm(gens[1], gens[0]), gens[1])
            assert mm(gens[0], gens[2]) == mm(gens[2], gens[0])

    def test_characters_on_identity(self):
        sctx = SpechtContext.generic(3)
        for lam in partitions_of(3):
            mod = specht_module(lam, sctx)
            assert mod.character(Permutation.identity(3)) == mod.dimension

    def test_h2_characters(self):
        sctx = SpechtContext.generic(2)
        s1 = Permutation.transposition(2, 1)
        assert specht_module(Partition((2,)), sctx).character(s1) == sctx.q
        assert specht_module(Partition((1, 1)), sctx).character(s1) == -1

    def test_permutations_of_another_degree_are_refused(self):
        sctx = SpechtContext.at_value(4, PrimeField(3), 2)
        module = specht_module(Partition((2, 1, 1)), sctx)
        for w in (Permutation((2, 1)), Permutation((2, 1, 3, 4, 5))):
            for read in (module.matrix, module.character, module.head_character):
                with pytest.raises(SpechtError, match=f"degree 4.*degree {w.degree}"):
                    read(w)
            assert w not in module._matrices


class TestGram:
    def test_row_partition_form_value(self):
        sctx = SpechtContext.generic(2)
        lam = Partition((2,))
        m = m_lambda(lam, sctx)
        assert gram_entry(m, m, lam, sctx) == sctx.q + 1

    def test_trivial_partition_form_value(self):
        sctx = SpechtContext.generic(2)
        lam = Partition((1, 1))
        m = m_lambda(lam, sctx)
        assert gram_entry(m, m, lam, sctx) == 1

    def test_bilinearity(self):
        sctx = SpechtContext.generic(3)
        lam = Partition((2, 1))
        basis = specht_module(lam, sctx).basis
        x, y = basis[0], basis[1]
        c = sctx.q + 3
        assert gram_entry(x, y.scalar_mul(c), lam, sctx) == c * gram_entry(
            x, y, lam, sctx
        )

    def test_membership_enforced(self):
        sctx = SpechtContext.generic(2)
        lam = Partition((2,))
        outsider = sctx.hecke_context().identity()
        with pytest.raises(SpechtError):
            gram_entry(outsider, outsider, lam, sctx)

    def test_gram_symmetric(self):
        sctx = SpechtContext.generic(4)
        for lam in partitions_of(4):
            g = specht_module(lam, sctx).gram
            assert g == tuple(zip(*g))

    def test_shared_module_cannot_be_mutated(self):
        sctx = SpechtContext.generic(3)
        lam = Partition((2, 1))
        mod = specht_module(lam, sctx)
        det = mod.gram_determinant()
        with pytest.raises(TypeError):
            mod.gram[0][0] = sctx.field_context.field.zero()
        with pytest.raises(TypeError):
            mod.generator_matrix(1)[0][0] = sctx.q
        with pytest.raises(TypeError):
            mod.basis[0] = mod.basis[1]
        assert specht_module(lam, sctx).gram_determinant() == det

    def test_gram_matches_gram_entry(self):
        sctx = SpechtContext.at_value(4, PrimeField(3), 2)
        for lam in partitions_of(4):
            mod = specht_module(lam, sctx)
            for i, x in enumerate(mod.basis):
                for j, y in enumerate(mod.basis):
                    assert mod.gram[i][j] == gram_entry(x, y, lam, sctx)

    def test_closure_decomposition_builds_no_gram(self):
        specht_module.cache_clear()
        decompose_closure(BraidWord(4, [1, -2, 3]))
        assert specht_module.cache_info().currsize == 0
        module = specht_module(Partition((2, 2)), SpechtContext.generic(4))
        assert "gram" not in vars(module)
        module.gram_rank()
        assert "gram" in vars(module)

    def test_gram_forms_no_hecke_product(self, monkeypatch):
        specht_module.cache_clear()
        sctx = SpechtContext.at_value(5, PrimeField(3), 2)
        mod = specht_module(Partition((3, 1, 1)), sctx)
        folds = []
        sizes = []
        fold = hecke.fold_letter
        insert = EchelonBasis.insert

        def counting_fold(*args, **kwargs):
            folds.append(args[1])
            return fold(*args, **kwargs)

        def recording_insert(basis, vector):
            sizes.append(basis.dimension)
            return insert(basis, vector)

        monkeypatch.setattr(hecke, "fold_letter", counting_fold)
        monkeypatch.setattr(EchelonBasis, "insert", recording_insert)
        assert len(mod.gram) == mod.dimension == 6
        assert folds == []
        # every insert lands in the [v | rho] span, none in an n!-length space
        assert set(sizes) == {2 * mod.dimension}

    def test_corrupted_action_is_caught(self):
        f3 = SpechtContext.at_value(4, PrimeField(3), 2)
        cases = [
            (SpechtContext.generic(3), (2, 1), 1, None, "not proportional"),
            (SpechtContext.generic(3), (2, 1), 2, (0, 1), "determines no form"),
            (f3, (2, 1, 1), 3, (0, 0), "not symmetric and invariant"),
        ]
        for sctx, parts, i, bump, message in cases:
            lam = Partition(parts)
            mod = specht_module(lam, sctx)
            matrix = [list(row) for row in mod.action[i - 1]]
            if bump is None:  # the whole generator matrix doubled
                matrix = [[c + c for c in row] for row in matrix]
            else:  # one entry moved by one
                matrix[bump[0]][bump[1]] += 1
            action = list(mod.action)
            action[i - 1] = tuple(map(tuple, matrix))
            corrupted = SpechtModule(lam, sctx, mod.basis, tuple(action), mod.seed)
            with pytest.raises(ProportionalityError, match=message):
                corrupted.gram

    def test_generic_gram_rank_full(self):
        for n in (2, 3, 4):
            sctx = SpechtContext.generic(n)
            for lam in partitions_of(n):
                mod = specht_module(lam, sctx)
                assert mod.gram_rank() == mod.dimension


class TestGramAgainstReferenceProduct:
    @pytest.mark.parametrize(
        "make, max_n",
        [
            (SpechtContext.generic, 4),
            (lambda n: SpechtContext.at_value(n, PrimeField(3), 2), 5),
            (lambda n: SpechtContext.at_value(n, Rationals(), 2), 4),
            (lambda n: SpechtContext.at_value(n, PrimeField(5), 2), 5),
            (lambda n: SpechtContext.at_value(n, Rationals(), -1), 5),
        ],
        ids=["Q(q)", "F_3 at q=2", "Q at q=2", "F_5 at q=2", "Q at q=-1"],
    )
    def test_gram_rows_match_entrywise_products(self, make, max_n):
        for n in range(1, max_n + 1):
            sctx = make(n)
            one = sctx.field_context.field.one()
            for lam in partitions_of(n):
                mod = specht_module(lam, sctx)
                form = bilinear_form(lam, sctx)
                cleared = [
                    b.scalar_mul(specht._denominator_factor(b, one)) for b in mod.basis
                ]
                expected = tuple(
                    tuple(form(reference_product(star(x), y)) for y in cleared)
                    for x in cleared
                )
                assert mod.gram == expected

    def test_denominators_are_cleared_before_the_form(self):
        # the same module over a basis divided by 1 + q: the action is
        # unchanged, the seed is multiplied by 1 + q, and each basis element
        # is scaled back by the product of its denominators
        sctx = SpechtContext.generic(3)
        lam = Partition((2, 1))
        mod = specht_module(lam, sctx)
        one = sctx.field_context.field.one()
        unit = sctx.q + 1
        basis = tuple(b.scalar_mul(one / unit) for b in mod.basis)
        seed = tuple(unit * c for c in mod.seed)
        scaled = SpechtModule(lam, sctx, basis, mod.action, seed)
        factors = [specht._denominator_factor(b, one) for b in basis]
        assert all(f != one for f in factors)
        form = bilinear_form(lam, sctx)
        cleared = [b.scalar_mul(f) for b, f in zip(basis, factors)]
        expected = tuple(
            tuple(form(reference_product(star(x), y)) for y in cleared)
            for x in cleared
        )
        assert scaled.gram == expected
        assert scaled.gram != mod.gram


class TestClearCaches:
    def test_caches_empty_and_modules_rebuild_equal(self):
        caches = (specht_module, hecke._rank_keys, hecke._packing_units)
        sctx = SpechtContext.at_value(3, PrimeField(3), 2)
        lam = Partition((2, 1))
        before = specht_module(lam, sctx)
        gram = before.gram
        sctx.hecke_context().generator_image(1, -1)
        assert all(cache.cache_info().currsize for cache in caches)
        clear_caches()
        assert all(cache.cache_info().currsize == 0 for cache in caches)
        assert not specht._held_ideal
        after = specht_module(lam, sctx)
        assert after is not before
        assert after == before
        assert after.basis == before.basis
        assert after.action == before.action
        assert after.gram == gram
        assert len(specht._held_ideal) == 1
        clear_caches()
        assert not specht._held_ideal

    def test_clears_the_caches_behind_rebound_names(self, monkeypatch):
        cached = specht.specht_module
        cached(Partition((2, 1)), SpechtContext.generic(3))
        assert cached.cache_info().currsize
        monkeypatch.setattr(specht, "specht_module", lambda *args: cached(*args))
        clear_caches()
        assert cached.cache_info().currsize == 0

    def test_coordinate_order_cache_is_bounded(self):
        assert hecke._rank_keys.cache_info().maxsize is not None

    def test_every_cache_is_bounded_and_cleared(self):
        caches = {}
        for info in pkgutil.iter_modules(heckelink.__path__, "heckelink."):
            module = importlib.import_module(info.name)
            classes = [v for v in vars(module).values() if isinstance(v, type)]
            for owner in [module] + classes:
                for name, value in vars(owner).items():
                    if callable(getattr(value, "cache_info", None)):
                        caches[f"{info.name}.{name}"] = value
        assert {
            "heckelink.specht.specht_module",
            "heckelink.hecke._rank_keys",
            "heckelink.hecke._packing_units",
        } <= set(caches)
        specht_module(Partition((2, 1)), SpechtContext.generic(3))
        clear_caches()
        for name, cache in caches.items():
            info = cache.cache_info()
            assert info.maxsize is not None, name
            assert info.currsize == 0, name


class TestSharedModules:
    def test_rebinding_a_field_is_refused(self):
        sctx = SpechtContext.generic(3)
        lam = Partition((2, 1))
        module = specht_module(lam, sctx)
        det = module.gram_determinant()
        swapped = (module.action[1], module.action[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            module.action = swapped
        with pytest.raises(dataclasses.FrozenInstanceError):
            module.extra = None
        assert specht_module(lam, sctx).gram_determinant() == det

    def test_memos_take_no_part_in_equality_or_repr(self):
        sctx = SpechtContext.at_value(4, PrimeField(3), 2)
        module = specht_module(Partition((2, 1, 1)), sctx)
        rebuilt = SpechtModule(
            module.lam, module.sctx, module.basis, module.action, module.seed
        )
        assert module == rebuilt
        shown = repr(rebuilt)
        w = Permutation((2, 3, 1, 4))
        module.character(w)
        module.head_character(w)
        assert module == rebuilt
        assert repr(module) == repr(rebuilt) == shown
        assert "_characters" not in shown and "_matrices" not in shown

    def test_builds_hold_at_most_one_ideal(self):
        def live_subspaces():
            # the echelon bases over H_3 or H_4, of dimension 3! or 4!
            gc.collect()
            return sum(
                isinstance(o, EchelonBasis) and o.dimension in (6, 24)
                for o in gc.get_objects()
            )

        clear_caches()
        before = live_subspaces()
        # two contexts, so the held ideal is both grown and replaced
        for n in (3, 4):
            sctx = SpechtContext.at_value(n, PrimeField(11), 5)
            for lam in partitions_of(n):
                module = specht_module(lam, sctx)
                assert module.dimension == count_standard_tableaux(lam)
                assert live_subspaces() == before + 1
        clear_caches()
        assert live_subspaces() == before


class TestMurphyProportionality:
    def test_random_sandwiches(self):
        rng = random.Random(31)
        for n in (2, 3, 4):
            sctx = SpechtContext.generic(n)
            ctx = sctx.hecke_context()
            for lam in partitions_of(n):
                m = m_lambda(lam, sctx)
                ideal = ideal_I(lam, sctx)
                for _ in range(5):
                    imgs = list(range(1, n + 1))
                    rng.shuffle(imgs)
                    w = Permutation(imgs)
                    sandwich = m * ctx.basis_element(w) * m
                    # must not raise, and the value is consistent with the form
                    value = gram_entry(m, (ctx.basis_element(w) * m), lam, sctx)
                    residue = reduce_element(ideal, sctx, sandwich)
                    expected = reduce_element(ideal, sctx, m.scalar_mul(value))
                    assert residue == expected


class TestDimD:
    def test_generic_row_partition(self):
        sctx = SpechtContext.generic(2)
        assert dim_D_lambda(Partition((2,)), sctx) == 1

    def test_rationals_at_minus_one(self):
        sctx = SpechtContext.at_value(2, Rationals(), Fraction(-1))
        assert dim_D_lambda(Partition((2,)), sctx) == 0
        assert dim_D_lambda(Partition((1, 1)), sctx) == 1

    def test_e_restriction_theorem_small(self):
        # F3 with q=2 has e = 2; F7 with q=2 has e = 3
        for p, qv in ((3, 2), (7, 2)):
            field = PrimeField(p)
            e = quantum_e(field.from_int(qv))
            for n in (2, 3):
                sctx = SpechtContext.at_value(n, field, qv)
                for lam in partitions_of(n):
                    positive = dim_D_lambda(lam, sctx) > 0
                    assert positive == e_restricted(lam, e), (p, qv, lam)

    def test_distinct_nonzero_heads_have_distinct_characters(self):
        import itertools

        for p, qv, n in ((3, 2, 3), (3, 2, 4), (7, 2, 4)):
            field = PrimeField(p)
            sctx = SpechtContext.at_value(n, field, qv)
            perms = [Permutation(w) for w in itertools.permutations(range(1, n + 1))]
            vectors = {}
            for lam in partitions_of(n):
                if dim_D_lambda(lam, sctx) == 0:
                    continue
                mod = specht_module(lam, sctx)
                vectors[lam] = tuple(mod.head_character(w) for w in perms)
            values = list(vectors.values())
            assert len(set(values)) == len(values)

    def test_head_character_on_identity_is_gram_rank(self):
        field = PrimeField(3)
        for n in (2, 3, 4):
            sctx = SpechtContext.at_value(n, field, 2)
            for lam in partitions_of(n):
                mod = specht_module(lam, sctx)
                assert mod.head_character(Permutation.identity(n)) == mod.gram_rank()


def _reference_head_characters(module, perms):
    """Head characters by way of the radical: a kernel basis of the Gram
    matrix, inserted into an echelon basis; the action of T_w restricted to
    it; the module trace minus the radical trace."""
    field = module.sctx.field_context.field
    zero, one = field.zero(), field.one()
    rad = EchelonBasis(module.dimension, zero, one)
    for vec in kernel_basis(module.gram, zero, one):
        rad.insert(dict(enumerate(vec)))
    heads = []
    for w in perms:
        mat = module.matrix(w)
        rad_trace = zero
        for k, vec in enumerate(rad.sparse_rows()):
            image = {
                r: sum((row[c] * x for c, x in vec.items()), zero)
                for r, row in enumerate(mat)
            }
            coords = rad.coordinates(image)
            assert coords is not None, "the Gram radical is not invariant"
            rad_trace = rad_trace + coords[k]
        heads.append(module.character(w) - rad_trace)
    return heads


class TestHeadCharacter:
    @pytest.mark.parametrize(
        "field, q, max_n",
        [
            (PrimeField(3), 2, 5),
            (PrimeField(5), 2, 5),
            (PrimeField(5), 4, 5),
            (PrimeField(7), 2, 5),
            (PrimeField(2), 1, 5),
            (Rationals(), -1, 5),
            (Rationals(), 2, 5),
            (None, None, 4),
        ],
        ids=["F_3 at q=2", "F_5 at q=2", "F_5 at q=4", "F_7 at q=2", "F_2 at q=1",
             "Q at q=-1", "Q at q=2", "Q(q)"],
    )
    def test_matches_the_radical_route(self, field, q, max_n):
        for n in range(1, max_n + 1):
            if field is None:
                sctx = SpechtContext.generic(n)
            else:
                sctx = SpechtContext.at_value(n, field, q)
            perms = [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
            for lam in partitions_of(n):
                module = specht_module(lam, sctx)
                heads = [module.head_character(w) for w in perms]
                assert heads == _reference_head_characters(module, perms)
                scalars = sctx.field_context.field
                gram = [list(row) for row in module.gram]
                assert module.gram_rank() == matrix_rank(gram, scalars)
                assert module.gram_determinant() == cofactor(gram, scalars.zero())

    def test_gram_is_eliminated_once(self, monkeypatch):
        calls = []
        triangulate = specht.triangulate

        def counting_triangulate(*args):
            calls.append(args)
            return triangulate(*args)

        monkeypatch.setattr(specht, "triangulate", counting_triangulate)
        # a fresh copy of (3,2) over F_5 at q = 2: rank 1 of dimension 5
        sctx = SpechtContext.at_value(5, PrimeField(5), 2)
        shared = specht_module(Partition((3, 2)), sctx)
        module = SpechtModule(
            shared.lam, shared.sctx, shared.basis, shared.action, shared.seed
        )
        rank, det = module.gram_rank(), module.gram_determinant()
        assert (module.gram_rank(), module.gram_determinant()) == (rank, det)
        assert (rank, det) == (1, 0)
        assert module.head_character(Permutation.identity(5)) == rank
        for w in (Permutation((2, 1, 3, 5, 4)), Permutation((5, 4, 3, 2, 1))):
            module.head_character(w)
        assert len(calls) == 1


class TestStandardTableaux:
    def test_row_shape(self):
        assert count_standard_tableaux(Partition((5,))) == 1

    def test_hook(self):
        assert count_standard_tableaux(Partition((2, 1))) == 2

    def test_square(self):
        assert count_standard_tableaux(Partition((2, 2))) == 2

    def test_against_exhaustive_fillings(self):
        import itertools

        def brute(lam):
            n = lam.n
            cells = [
                (r, c) for r, part in enumerate(lam.parts) for c in range(part)
            ]
            count = 0
            for perm in itertools.permutations(range(1, n + 1)):
                grid = {cell: val for cell, val in zip(cells, perm)}
                ok = True
                for (r, c), val in grid.items():
                    if c + 1 < lam.parts[r] and grid[(r, c + 1)] < val:
                        ok = False
                        break
                    if r + 1 < len(lam.parts) and lam.parts[r + 1] > c and grid[
                        (r + 1, c)
                    ] < val:
                        ok = False
                        break
                if ok:
                    count += 1
            return count

        for lam in partitions_of(5):
            assert count_standard_tableaux(lam) == brute(lam)


class TestContextValidation:
    def test_rejects_no_strands(self):
        with pytest.raises(SpechtError, match="strand count must be >= 1"):
            SpechtContext(0, one_parameter_context(Rationals(), 2))

    def test_rejects_wrong_first_parameter(self):
        from heckelink.coefficients import FieldContext

        with pytest.raises(SpechtError):
            SpechtContext(2, FieldContext(Rationals(), 1, -1))

    def test_builders_refuse_a_partition_of_another_n(self):
        # a smaller n once built a one-dimensional "ideal" of H_4 from the
        # ranks of S_3; a larger one failed inside the fold with IndexError
        cases = [
            (Partition((2, 1)), SpechtContext.generic(4)),
            (Partition((2, 1, 1, 1)), SpechtContext.generic(3)),
        ]
        for lam, sctx in cases:
            for build in (ideal_I, specht_module):
                with pytest.raises(SpechtError, match=f"is not a partition of {sctx.n}"):
                    build(lam, sctx)
