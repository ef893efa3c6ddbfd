"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Expected values marked as brute-force were computed with an independent
kron-product oracle (see helpers.py) before being frozen here.
"""

import math

import numpy as np

from helpers import (kron_all, random_bloch, random_density_mat,
                     random_pure_vec, random_unitary)

from mpcorr.bloch import decompose, reconstruct
from mpcorr.classify import (DegenerateBlochVectorsError, correlation_spectrum,
                             ph_condition_explicit, ph_invariants, ph_test,
                             ph_test_signflip)
from mpcorr.density import DensityMatrix, from_pure, partial_trace, tensor
from mpcorr.exchange import project_exchange
from mpcorr.families import (bell, cc_mixture, generalized_werner,
                             tripartite_qutrit_e3)
from mpcorr.measures import (concurrence_pure, e_c_bipartite, e_d, e_e,
                             entanglement_entropy)

PSI_MINUS_DM = bell("psi-")


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def sech(x: float) -> float:
    return 1.0 / math.cosh(x)


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def test_criterion_01_bell_exactness():
    worst_ec = 0.0
    for which in ("phi+", "phi-", "psi+", "psi-"):
        dec = decompose(bell(which))
        worst_ec = max(worst_ec, abs(e_c_bipartite(dec.pair(0, 1), (2, 2)) - 1.0))
    c_err = float(np.abs(decompose(PSI_MINUS_DM).pair(0, 1) + np.eye(3)).max())
    report("01 bell-exactness",
           worst_ec <= 1e-12 and c_err <= 1e-14,
           f"max |E_C - 1| = {worst_ec:.2e}, max |C + I| = {c_err:.2e}")


def test_criterion_02_rashid_triple_curve():
    from mpcorr.families import rashid
    worst = 0.0
    thetas = np.arange(-2.0, 2.0001, 0.1)
    for theta in thetas:
        rho = rashid(theta)
        s = sech(2 * theta)
        dec = decompose(rho)
        worst = max(worst,
                    abs(e_c_bipartite(dec.pair(0, 1), (2, 2)) - (2 * s * s + s ** 4) / 3),
                    abs(concurrence_pure(rho) - s),
                    abs(entanglement_entropy(rho) - binary_entropy((1 - math.tanh(2 * theta)) / 2)))
    rho0 = rashid(0.0)
    at_zero = max(abs(e_c_bipartite(decompose(rho0).pair(0, 1), (2, 2)) - 1),
                  abs(concurrence_pure(rho0) - 1),
                  abs(entanglement_entropy(rho0) - 1))
    report("02 rashid-triple-curve", worst <= 1e-10 and at_zero <= 1e-10,
           f"max deviation {worst:.2e}, at theta=0 {at_zero:.2e}")


def test_criterion_03_werner_closed_forms():
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 51):
        for theta in np.linspace(-2.0, 2.0, 41):
            dec = decompose(generalized_werner(p, theta))
            t, s = math.tanh(2 * theta), sech(2 * theta)
            na_want = np.array([0.0, 0.0, p * t])
            c_want = -p * np.diag([s, s, 1 - p + p * s * s])
            worst = max(worst,
                        float(np.abs(dec.coherence_vectors[0] - na_want).max()),
                        float(np.abs(dec.coherence_vectors[1] + na_want).max()),
                        float(np.abs(dec.pair(0, 1) - c_want).max()))
    report("03 werner-closed-forms", worst <= 1e-12, f"max deviation {worst:.2e}")


def test_criterion_04_ph_threshold():
    worst = 0.0
    for theta in np.arange(0.0, 2.0001, 0.25):
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if ph_test(generalized_werner(mid, theta)).min_eigenvalue < 0.0:
                hi = mid
            else:
                lo = mid
        p_star = 0.5 * (lo + hi)
        worst = max(worst, abs(p_star - 1.0 / (1.0 + 2.0 * sech(2 * theta))))
        if theta == 0.0:
            zero_err = abs(p_star - 1.0 / 3.0)
    report("04 ph-threshold", worst <= 1e-6 and zero_err <= 1e-6,
           f"max |p* - formula| = {worst:.2e}, theta=0 error {zero_err:.2e}")


def test_criterion_05_xi_identity():
    worst = 0.0
    checked = disagreements = 0
    for p in np.linspace(0.0, 1.0, 51):
        for theta in np.linspace(-2.0, 2.0, 41):
            if abs(math.tanh(2 * theta)) < 1e-6:
                continue
            rho = generalized_werner(p, theta)
            try:
                inv = ph_invariants(decompose(rho))
            except DegenerateBlochVectorsError:
                continue  # p = 0 also has n_A . n_B = 0
            lhs = -inv.xi + math.sqrt(inv.xi ** 2 / 4.0 - inv.na_dot_nb)
            worst = max(worst, abs(lhs - p * (1.0 + 2.0 * sech(2 * theta))))
            disagreements += ph_condition_explicit(inv) != ph_test(rho).entangled
            checked += 1
    report("05 xi-identity",
           worst <= 1e-10 and disagreements == 0 and checked > 1900,
           f"max identity error {worst:.2e}, {disagreements} verdict disagreements over {checked} points")


def test_criterion_06_nsv_classification():
    rng = np.random.default_rng(606)

    def nsv_of(rho):
        return correlation_spectrum(decompose(rho).pair(0, 1)).nsv_count

    ok = True
    details = []
    for k in (2, 3, 4, 5):
        want = min(k - 1, 3)
        hits = 0
        for _ in range(1000):
            weights = rng.dirichlet(np.ones(k))
            rho = cc_mixture([(w, random_bloch(rng), random_bloch(rng)) for w in weights])
            count = nsv_of(rho)
            ok = ok and count <= want
            hits += count == want
        details.append(f"k={k}: {hits / 10:.1f}%")
        ok = ok and hits >= 990
    ok = ok and all(nsv_of(bell(w)) == 3 for w in ("phi+", "phi-", "psi+", "psi-"))
    for _ in range(200):
        weights = rng.dirichlet(np.ones(2))
        parts = [tensor(DensityMatrix((3,), random_density_mat(3, rng)),
                        DensityMatrix((3,), random_density_mat(3, rng))) for _ in range(2)]
        from mpcorr.density import mix
        ok = ok and nsv_of(mix(weights, parts)) == 1
    for _ in range(100):
        lam = rng.uniform(0.05, 0.95)
        vec = (math.sqrt(lam) * np.kron([1, 0, 0], [1, 0, 0])
               + math.sqrt(1 - lam) * np.kron([0, 1, 0], [0, 1, 0]))
        u = kron_all([random_unitary(3, rng), random_unitary(3, rng)])
        ok = ok and nsv_of(from_pure(u @ vec, (3, 3))) == 3
        ok = ok and nsv_of(from_pure(random_pure_vec(9, rng), (3, 3))) == 8
    report("06 nsv-classification", ok, "; ".join(details))


def test_criterion_07_tripartite_qutrit_surface():
    grid = np.linspace(-2.0, 2.0, 41)
    values = {}
    for t1 in grid:
        for t2 in grid:
            values[(t1, t2)] = e_d(decompose(tripartite_qutrit_e3(t1, t2)))
    (m1, m2), peak = max(values.items(), key=lambda kv: kv[1])
    symmetry = max(abs(values[(a, b)] - values[(b, a)]) for a in grid for b in grid)
    ridge = values[(-1.0, -1.0)]
    off = max(values[(-1.0, 1.0)], values[(1.0, -1.0)])
    report("07 tripartite-qutrit-surface",
           m1 == 0.0 and m2 == 0.0 and abs(peak - 1.0) <= 1e-9
           and symmetry <= 1e-12 and ridge > off,
           f"max E_D {peak:.12f} at ({m1}, {m2}), symmetry {symmetry:.2e}, "
           f"ridge {ridge:.4f} > off-ridge {off:.4f}")


def test_criterion_08_roundtrip_and_invariance():
    rng = np.random.default_rng(808)
    shapes = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 3, 3), (2, 2, 2, 2)]
    worst_rt = 0.0
    for dims in shapes:
        d = int(np.prod(dims))
        for _ in range(200):
            rho = DensityMatrix(dims, random_density_mat(d, rng))
            again = reconstruct(decompose(rho))
            worst_rt = max(worst_rt, float(np.abs(again.matrix - rho.matrix).max()))
    ok_rt = worst_rt <= 1e-12

    worst_inv = 0.0
    for dims, fn in [((2, 2), lambda r: e_c_bipartite(decompose(r).pair(0, 1), (2, 2))),
                     ((3, 3), lambda r: e_c_bipartite(decompose(r).pair(0, 1), (3, 3))),
                     ((2, 2, 2), lambda r: e_d(decompose(r))),
                     ((3, 3, 3), lambda r: e_d(decompose(r))),
                     ((2, 2, 2, 2), lambda r: e_e(decompose(r)))]:
        d = int(np.prod(dims))
        for _ in range(10):
            rho = DensityMatrix(dims, random_density_mat(d, rng))
            u = kron_all([random_unitary(n, rng) for n in dims])
            rotated = DensityMatrix(dims, u @ rho.matrix @ u.conj().T)
            worst_inv = max(worst_inv, abs(fn(rotated) - fn(rho)))
    ok_inv = worst_inv <= 1e-10

    worst_id = 0.0
    for dims in [(2, 2), (2, 3), (3, 3)]:
        d = int(np.prod(dims))
        for _ in range(50):
            rho = DensityMatrix(dims, random_density_mat(d, rng))
            dec = decompose(rho)
            delta = rho.matrix - tensor(partial_trace(rho, [0]), partial_trace(rho, [1])).matrix
            lhs = float(np.trace(delta @ delta).real)
            worst_id = max(worst_id, abs(lhs - 0.25 * float((dec.pair(0, 1) ** 2).sum())))
    ok_id = worst_id <= 1e-12
    report("08 roundtrip-and-invariance", ok_rt and ok_inv and ok_id,
           f"roundtrip {worst_rt:.2e}, invariance {worst_inv:.2e}, operator identity {worst_id:.2e}")


def test_criterion_09_exchange_singlet():
    rng = np.random.default_rng(909)
    worst = 0.0
    used = 0
    for _ in range(1000):
        rho = DensityMatrix((2, 2), random_density_mat(4, rng))
        proj = project_exchange(rho, "antisymmetric")
        if proj.weight > 1e-6:
            worst = max(worst, float(np.abs(proj.projected.matrix - PSI_MINUS_DM.matrix).max()))
            used += 1
    report("09 exchange-singlet", worst <= 1e-10 and used > 900,
           f"max |projection - singlet| = {worst:.2e} over {used} states")


def test_criterion_10_ph_path_equivalence():
    rng = np.random.default_rng(1010)
    disagreements = 0
    for _ in range(1000):
        rho = DensityMatrix((2, 2), random_density_mat(4, rng))
        disagreements += ph_test(rho).entangled != ph_test_signflip(rho).entangled
    report("10 ph-path-equivalence", disagreements == 0,
           f"{disagreements} disagreements over 1000 states")


def test_criterion_11_documented_non_reproduction():
    # The printed generalized-Werner closed form 1 - p + (2p^2 + p) sech^2(2
    # theta) does not match the direct sum of squared C entries; at p = 0.5,
    # theta = 0 the direct value is 0.75 while the printed form gives 1.5.
    # The direct value is what this package computes.
    p, theta = 0.5, 0.0
    dec = decompose(generalized_werner(p, theta))
    direct = float((dec.pair(0, 1) ** 2).sum())
    s = sech(2 * theta)
    closed = 2 * p * p * s * s + p * p * (1 - p + p * s * s) ** 2
    printed = 1 - p + (2 * p * p + p) * s * s
    ok = (abs(direct - 0.75) <= 1e-12
          and abs(direct - closed) <= 1e-12
          and abs(printed - direct) > 0.5)
    report("11 documented-non-reproduction", ok,
           f"direct sum C^2 = {direct:.12f}, printed form = {printed:.2f} (not reproduced)")
