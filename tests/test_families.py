import inspect
import math

import numpy as np
import pytest

from helpers import SX, SY, SZ, kron_all, random_bloch

import mpcorr.cli
from mpcorr import families
from mpcorr.bloch import decompose
from mpcorr.classify import correlation_spectrum, ph_test
from mpcorr.density import partial_transpose, validate
from mpcorr.families import (BELL_VECTORS, FAMILY_BUILDERS, bell, build_family, cc_mixture,
                             family_row, family_stacks, generalized_werner,
                             ghz, rashid, tripartite_qutrit_e3)
from mpcorr.measures import e_c_bipartite, e_d

BELL_C_DIAGONALS = {
    "phi+": (1, -1, 1),
    "phi-": (-1, 1, 1),
    "psi+": (1, 1, -1),
    "psi-": (-1, -1, -1),
}


class TestBell:
    @pytest.mark.parametrize("which", sorted(BELL_VECTORS))
    def test_correlation_matrices(self, which):
        c = decompose(bell(which)).pair(0, 1)
        assert np.abs(c - np.diag(BELL_C_DIAGONALS[which])).max() < 1e-14

    @pytest.mark.parametrize("which", sorted(BELL_VECTORS))
    def test_maximally_entangled(self, which):
        c = decompose(bell(which)).pair(0, 1)
        assert e_c_bipartite(c, (2, 2)) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="Bell"):
            bell("omega+")

    @pytest.mark.parametrize("which", [3, None, ["phi+"]])
    def test_non_string_name_rejected(self, which):
        with pytest.raises(ValueError, match="string"):
            bell(which)


class TestRashid:
    def test_theta_zero_is_phi_plus(self):
        assert np.abs(rashid(0.0).matrix - bell("phi+").matrix).max() < 1e-14

    def test_pauli_expansion(self):
        # 1/4 [ (1 - tanh sz)(1 - tanh sz) + sech (sx sx - sy sy) + sech^2 sz sz ]
        for theta in np.linspace(-2, 2, 17):
            t, s = math.tanh(2 * theta), 1 / math.cosh(2 * theta)
            one = np.eye(2, dtype=complex)
            want = (kron_all([one - t * SZ, one - t * SZ])
                    + s * (kron_all([SX, SX]) - kron_all([SY, SY]))
                    + s ** 2 * kron_all([SZ, SZ])) / 4
            assert np.abs(rashid(theta).matrix - want).max() < 1e-12

    def test_large_theta_unentangles(self):
        for theta in (5.0, -5.0):
            c = decompose(rashid(theta)).pair(0, 1)
            assert e_c_bipartite(c, (2, 2)) < 1e-6

    def test_output_is_valid(self):
        for theta in (-1.5, 0.0, 2.0):
            validate(rashid(theta).matrix, (2, 2))


class TestCCMixture:
    def test_opposed_z_terms(self):
        rho = cc_mixture([(0.5, [0, 0, 1], [0, 0, -1]),
                          (0.5, [0, 0, -1], [0, 0, 1])])
        c = decompose(rho).pair(0, 1)
        want = np.zeros((3, 3))
        want[2, 2] = -1.0
        assert np.abs(c - want).max() < 1e-14
        assert correlation_spectrum(c).nsv_count == 1

    def test_single_term_is_product(self, rng):
        rho = cc_mixture([(1.0, random_bloch(rng), random_bloch(rng))])
        assert np.abs(decompose(rho).pair(0, 1)).max() < 1e-13

    def test_tilted_weights_reproduce_sech_squared(self):
        for theta in (0.0, 0.4, 1.1):
            z = 2 * math.cosh(2 * theta)
            rho = cc_mixture([(math.exp(-2 * theta) / z, [0, 0, -1], [0, 0, 1]),
                              (math.exp(2 * theta) / z, [0, 0, 1], [0, 0, -1])])
            c = decompose(rho).pair(0, 1)
            sech2 = 1 / math.cosh(2 * theta) ** 2
            offdiag = c - np.diag(np.diag(c))
            assert np.abs(offdiag).max() < 1e-14
            assert c[2, 2] == pytest.approx(-sech2, abs=1e-13)
            assert e_c_bipartite(c, (2, 2)) == pytest.approx(sech2 ** 2 / 3, abs=1e-13)

    def test_closed_form_bloch_vectors_and_c(self, rng):
        # n_X = sum_k p_k n_{X,k};  C_ij = sum_k p_k nA_i,k (nB_j,k - mean)
        for _ in range(20):
            k = rng.integers(2, 6)
            weights = rng.dirichlet(np.ones(k))
            terms = [(w, random_bloch(rng), random_bloch(rng)) for w in weights]
            dec = decompose(cc_mixture(terms))
            na = sum(w * np.asarray(a) for w, a, _ in terms)
            nb = sum(w * np.asarray(b) for w, _, b in terms)
            c = sum(w * np.multiply.outer(np.asarray(a), np.asarray(b) - nb) for w, a, b in terms)
            assert np.abs(dec.coherence_vectors[0] - na).max() < 1e-12
            assert np.abs(dec.coherence_vectors[1] - nb).max() < 1e-12
            assert np.abs(dec.pair(0, 1) - c).max() < 1e-12

    def test_outputs_are_ppt(self, rng):
        for _ in range(50):
            k = rng.integers(1, 6)
            weights = rng.dirichlet(np.ones(k))
            rho = cc_mixture([(w, random_bloch(rng), random_bloch(rng)) for w in weights])
            pt = partial_transpose(rho, 1)
            assert np.linalg.eigvalsh(pt.matrix).min() >= -1e-10

    def test_bloch_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            cc_mixture([(1.0, [0, 0, 1.5], [0, 0, 0])])

    def test_weights_enforced(self):
        with pytest.raises(ValueError, match="sum"):
            cc_mixture([(0.7, [0, 0, 1], [0, 0, 1]), (0.7, [0, 0, -1], [0, 0, -1])])

    # used to raise "not enough values to unpack" or a reshape error, naming no term
    @pytest.mark.parametrize("terms,message", [
        (5, "terms must be a list, got 5"),
        ({"w": 1}, "terms must be a list, got {'w': 1}"),
        ([(1.0, [0, 0, 1])], "term 0 (weight, Bloch vector A, Bloch vector B) must be a list of 3, got (1.0, [0, 0, 1])"),
        ([(1.0, [0, 0, 1], [0, 0, 1], 0.0)], "term 0 (weight, Bloch vector A, Bloch vector B) must be a list of 3, "
                                             "got (1.0, [0, 0, 1], [0, 0, 1], 0.0)"),
        ([(0.5, [0, 0, 1], [0, 0, 1]), 0.5], "term 1 (weight, Bloch vector A, Bloch vector B) must be a list of 3, got 0.5"),
        ([(1.0, [0, 0], [0, 0, 1])], "term 0: Bloch vector A must be a list of 3, got [0, 0]"),
        ([(1.0, [0, 0, 1], np.zeros(4))], "term 0: Bloch vector B must be a list of 3, got array([0., 0., 0., 0.])"),
        ([(1.0, [0, 0, 1], "xyz")], "term 0: Bloch vector B must be a list of 3, got 'xyz'"),
    ], ids=["number", "object", "two-item-term", "four-item-term", "number-term", "two-component-a",
            "four-component-b", "string-b"])
    def test_malformed_terms_named(self, terms, message):
        with pytest.raises(ValueError) as info:
            cc_mixture(terms)
        assert str(info.value) == message


class TestGeneralizedWerner:
    def test_closed_forms_on_grid(self):
        for p in np.linspace(0, 1, 21):
            for theta in np.linspace(-2, 2, 21):
                dec = decompose(generalized_werner(p, theta))
                t, s = math.tanh(2 * theta), 1 / math.cosh(2 * theta)
                na = np.array([0, 0, p * t])
                c = -p * np.diag([s, s, 1 - p + p * s * s])
                assert np.abs(dec.coherence_vectors[0] - na).max() < 1e-12
                assert np.abs(dec.coherence_vectors[1] + na).max() < 1e-12
                assert np.abs(dec.pair(0, 1) - c).max() < 1e-12

    def test_pure_limit_is_singlet(self):
        assert np.abs(generalized_werner(1.0, 0.0).matrix - bell("psi-").matrix).max() < 1e-14

    def test_zero_mixing_is_maximally_mixed(self):
        rho = generalized_werner(0.0, 1.3)
        assert np.abs(rho.matrix - np.eye(4) / 4).max() < 1e-14
        dec = decompose(rho)
        assert np.abs(dec.pair(0, 1)).max() < 1e-14
        assert np.abs(dec.coherence_vectors[0]).max() < 1e-14

    def test_p_out_of_range(self):
        with pytest.raises(ValueError, match="p"):
            generalized_werner(1.2, 0.0)

    def test_entanglement_threshold(self):
        assert not ph_test(generalized_werner(0.30, 0.0)).entangled
        assert ph_test(generalized_werner(0.36, 0.0)).entangled


class TestGHZ:
    def test_three_qubits_unit_e_d(self):
        assert e_d(decompose(ghz(3, 2))) == pytest.approx(1.0, abs=1e-12)

    def test_three_qutrits_matches_e3_family(self):
        assert np.abs(ghz(3, 3).matrix - tripartite_qutrit_e3(0.0, 0.0).matrix).max() < 1e-14

    def test_four_qubits_e_xxxx(self):
        dec = decompose(ghz(4, 2))
        assert dec.correlations[(0, 1, 2, 3)][0, 0, 0, 0] == pytest.approx(1.0, abs=1e-13)

    # unchecked, (30, 2) would allocate 2**30 amplitudes (16 GiB); the message
    # shows that the bound is checked before any vector is sized
    @pytest.mark.parametrize("parties,level", [(1, 2), (2, 1), (9, 2), (2, 17), (6, 3), (30, 2), (10 ** 6, 2)])
    def test_refused_sizes(self, parties, level):
        with pytest.raises(ValueError, match=r"level\*\*parties <= 256"):
            ghz(parties, level)

    def test_outputs_valid(self):
        allowed = [(p, n) for p in range(2, 9) for n in range(2, 17) if n ** p <= 256]
        assert len(allowed) == 28
        for parties, level in allowed:
            rho = ghz(parties, level)
            assert rho.dims == (level,) * parties
            validate(rho.matrix, rho.dims)

    def test_two_qubits_is_phi_plus(self):
        assert np.array_equal(ghz(2, 2).matrix, bell("phi+").matrix)

    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_two_parties_unit_e_c(self, level):
        rho = ghz(2, level)
        assert e_c_bipartite(decompose(rho).pair(0, 1), rho.dims) == pytest.approx(1.0, abs=1e-12)


def test_every_family_output_is_a_valid_state(rng):
    states = [bell("psi+"), rashid(1.2), generalized_werner(0.4, -0.7),
              ghz(4, 2), tripartite_qutrit_e3(0.3, -1.1),
              cc_mixture([(0.3, random_bloch(rng), random_bloch(rng)),
                          (0.7, random_bloch(rng), random_bloch(rng))])]
    for rho in states:
        validate(rho.matrix, rho.dims)


class TestTripartiteQutrit:
    def test_unit_e_d_at_origin(self):
        assert e_d(decompose(tripartite_qutrit_e3(0.0, 0.0))) == pytest.approx(1.0, abs=1e-10)

    def test_bipartite_correlation_dips_where_e_d_peaks(self):
        # E_D is globally maximal at the origin, but the pairwise measure is
        # not: it climbs along the theta1 = theta2 < 0 ridge instead.
        from mpcorr.measures import e_c_multipartite
        here = e_c_multipartite(decompose(tripartite_qutrit_e3(0.0, 0.0)))
        for d1, d2 in [(-0.4, -0.4), (-1.0, -1.0), (-2.0, -2.0)]:
            assert e_c_multipartite(decompose(tripartite_qutrit_e3(d1, d2))) > here
        assert e_d(decompose(tripartite_qutrit_e3(-1.0, -1.0))) < 1.0

    def test_ridge_toward_negative_diagonal(self):
        on_ridge = e_d(decompose(tripartite_qutrit_e3(-1.0, -1.0)))
        assert on_ridge > e_d(decompose(tripartite_qutrit_e3(-1.0, 1.0)))
        assert on_ridge > e_d(decompose(tripartite_qutrit_e3(1.0, -1.0)))

    def test_swap_symmetry(self):
        for t1, t2 in [(0.7, -0.3), (1.5, 0.2), (-0.9, -1.4)]:
            a = e_d(decompose(tripartite_qutrit_e3(t1, t2)))
            b = e_d(decompose(tripartite_qutrit_e3(t2, t1)))
            assert a == pytest.approx(b, abs=1e-12)

    def test_outputs_valid(self):
        for t1, t2 in [(0.0, 0.0), (-2.0, 2.0), (1.0, 1.0)]:
            rho = tripartite_qutrit_e3(t1, t2)
            validate(rho.matrix, (3, 3, 3))


# points at which each stack function is held to its scalar builder
STACK_POINTS = {
    "rashid": {"theta": np.linspace(-3, 3, 7)},
    "generalized-werner": {"p": np.repeat(np.linspace(0, 1, 5), 3), "theta": np.tile([-1.5, 0.0, 0.4], 5)},
    "ghz": {"parties": np.array([3.0, 2.0, 3.0, 5.0, 2.0]), "level": np.array([2.0, 2.0, 2.0, 2.0, 4.0])},
    "tripartite-qutrit-e3": {"theta1": np.array([0.0, -1.0, 0.7, 2.0]), "theta2": np.array([0.0, -1.0, -0.3, 1.5])},
}


class TestFamilyTable:
    def test_every_numeric_family_has_points(self):
        assert set(STACK_POINTS) == {name for name, row in FAMILY_BUILDERS.items() if row[1] is not None}

    @pytest.mark.parametrize("name", sorted(STACK_POINTS))
    def test_stacks_equal_scalar_builder_bit_for_bit(self, name):
        params = STACK_POINTS[name]
        size = len(next(iter(params.values())))
        seen = []
        for idx, dims, mats in family_stacks(name, params):
            positions = np.arange(size)[idx].tolist()
            assert mats.shape[0] == len(positions)
            for k, i in enumerate(positions):
                rho = FAMILY_BUILDERS[name][0](**{key: values[i] for key, values in params.items()})
                assert rho.dims == dims
                assert np.array_equal(mats[k], rho.matrix)
            seen += positions
        assert sorted(seen) == list(range(size))

    def test_ghz_groups_keep_point_order(self):
        groups = family_stacks("ghz", {"parties": np.array([3.0, 2.0, 3.0, 5.0]), "level": np.full(4, 2.0)})
        assert [(idx, dims) for idx, dims, _ in groups] == [([0, 2], (2, 2, 2)), ([1], (2, 2)), ([3], (2,) * 5)]

    @pytest.mark.parametrize("name", ["bell", "cc-mixture"])
    def test_non_numeric_families_have_no_stack_function(self, name):
        assert FAMILY_BUILDERS[name][1] is None
        with pytest.raises(ValueError, match=f"{name!r} cannot be swept"):
            family_row(name, {}, sweep=True)

    @pytest.mark.parametrize("name", [["bell"], {"a": 1}, None, 3])
    def test_name_that_is_not_a_string_is_unknown(self, name):
        with pytest.raises(ValueError, match="unknown family"):
            build_family(name, {})

    @pytest.mark.parametrize("params", ["psi-", ["which"], [("which", "psi-")], None])
    def test_parameters_must_be_a_dict(self, params):
        with pytest.raises(ValueError, match=f"^parameters of family 'bell' must be an object, got {type(params).__name__}$"):
            build_family("bell", params)
        with pytest.raises(ValueError, match="must be an object"):
            family_stacks("rashid", params)

    def test_table_is_the_one_the_cli_and_bench_read(self):
        # bench/run.py replays cli.FAMILY_BUILDERS[family][0] by name from families
        assert mpcorr.cli.FAMILY_BUILDERS is FAMILY_BUILDERS
        for name in FAMILY_BUILDERS:
            builder = FAMILY_BUILDERS[name][0]
            assert getattr(families, builder.__name__) is builder

    @pytest.mark.parametrize("name", sorted(FAMILY_BUILDERS))
    def test_allowed_parameters_are_the_builder_signature(self, name):
        with pytest.raises(ValueError, match="^unknown parameter") as info:
            build_family(name, {"nope": 1})
        assert str(info.value).endswith(f"; allowed: {sorted(inspect.signature(FAMILY_BUILDERS[name][0]).parameters)}")

    # used to name the builder: "generalized_werner() missing 1 required positional argument: 'p'"
    @pytest.mark.parametrize("name,params,missing", [
        ("bell", {}, ["which"]),
        ("cc-mixture", {}, ["terms"]),
        ("rashid", {}, ["theta"]),
        ("generalized-werner", {"theta": 0.3}, ["p"]),
        ("tripartite-qutrit-e3", {}, ["theta1", "theta2"]),
        ("tripartite-qutrit-e3", {"theta1": 0.3}, ["theta2"]),
    ])
    def test_missing_parameter_named_with_its_family(self, name, params, missing):
        message = f"missing parameter(s) {missing} for family {name!r}"
        with pytest.raises(ValueError) as info:
            build_family(name, params)
        assert str(info.value) == message
        if FAMILY_BUILDERS[name][1] is not None:
            with pytest.raises(ValueError) as info:
                family_stacks(name, {key: np.full(2, value) for key, value in params.items()})
            assert str(info.value) == message

    def test_stacks_take_the_builder_defaults(self):
        p = np.linspace(0, 1, 3)
        [(_, _, werner)] = family_stacks("generalized-werner", {"p": p})
        [(_, _, tilted)] = family_stacks("generalized-werner", {"p": p, "theta": np.zeros(3)})
        assert np.array_equal(werner, tilted)
        groups = family_stacks("ghz", {"parties": np.array([2.0, 3.0])})
        assert [(idx, dims) for idx, dims, _ in groups] == [([0], (2, 2)), ([1], (2, 2, 2))]

    # used to raise numpy's AxisError and "iteration over a 0-d array", naming no parameter
    @pytest.mark.parametrize("name,params,rho", [("rashid", {"theta": 0.5}, rashid(0.5)), ("ghz", {}, ghz())],
                             ids=["scalar", "defaults-only"])
    def test_scalar_parameters_are_a_grid_of_one_point(self, name, params, rho):
        [(_, dims, mats)] = family_stacks(name, params)
        assert dims == rho.dims
        assert mats.shape == (1, *rho.matrix.shape) and np.array_equal(mats[0], rho.matrix.real)


class TestRealParameters:
    # float() reads the JSON string "0.5" as 0.5 and true as 1, so only real
    # numbers may reach it
    @pytest.mark.parametrize("builder,args", [
        (rashid, ("0.5",)),
        (rashid, (True,)),
        (generalized_werner, (True, 0.0)),
        (generalized_werner, (0.5, "0")),
        (ghz, ("3", 2)),
        (ghz, (3, " 2 ")),
        (ghz, (3, np.True_)),
        (tripartite_qutrit_e3, ("0", 0.0)),
        (tripartite_qutrit_e3, (0.0, False)),
        (cc_mixture, ([("1", [0, 0, 1], [0, 0, 1])],)),
        (cc_mixture, ([(True, [0, 0, 1], [0, 0, 1])],)),
        (cc_mixture, ([(1.0, ["0", "0", "1"], [0, 0, 1])],)),
        (cc_mixture, ([(1.0, [0, 0, 1], [True, False, False])],)),
    ])
    def test_strings_and_booleans_rejected(self, builder, args):
        with pytest.raises(ValueError, match="must be a real number"):
            builder(*args)

    # NaN would otherwise reach the amplitudes or the mixture weights, which
    # name no parameter
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("inf"),
                                       np.float64("-inf")], ids=lambda value: f"{type(value).__name__}-{value}")
    @pytest.mark.parametrize("build", [
        lambda x: rashid(x),
        lambda x: generalized_werner(x, 0.0),
        lambda x: generalized_werner(0.5, x),
        lambda x: ghz(x, 2),
        lambda x: ghz(3, x),
        lambda x: tripartite_qutrit_e3(x, 0.0),
        lambda x: tripartite_qutrit_e3(0.0, x),
        lambda x: cc_mixture([(x, [0, 0, 1], [0, 0, 1])]),
        lambda x: cc_mixture([(1.0, [0, x, 0], [0, 0, 1])]),
        lambda x: cc_mixture([(1.0, [0, 0, 1], [0, 0, x])]),
    ], ids=["rashid-theta", "werner-p", "werner-theta", "ghz-parties", "ghz-level", "qutrit-theta1",
            "qutrit-theta2", "cc-weight", "cc-bloch-a", "cc-bloch-b"])
    def test_non_finite_rejected(self, build, value):
        with pytest.raises(ValueError, match=f"must be finite, got {float(value)}$"):
            build(value)

    def test_numpy_scalars_accepted(self):
        assert np.array_equal(rashid(np.float64(0.5)).matrix, rashid(0.5).matrix)
        assert np.array_equal(generalized_werner(np.float32(0.5), np.int64(1)).matrix,
                              generalized_werner(0.5, 1.0).matrix)
        assert np.array_equal(ghz(np.int64(3), np.float64(2)).matrix, ghz(3, 2).matrix)
        assert np.array_equal(tripartite_qutrit_e3(np.float64(0.25), np.int32(-1)).matrix,
                              tripartite_qutrit_e3(0.25, -1.0).matrix)
        assert np.array_equal(cc_mixture([(np.float64(1), np.array([0, 0, 1]), (0.0, 0.0, -1))]).matrix,
                              cc_mixture([(1.0, [0.0, 0.0, 1.0], [0.0, 0.0, -1.0])]).matrix)
