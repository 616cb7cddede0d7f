import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (block_apply, block_dense, block_difference, homogeneous_sup_norm,
                     inverse_blocks, matrix_loop, psi_blocks)
from psilab import experiments, homotopy
from psilab.bands import _band_adjoint, _band_diff, _dense
from psilab.config import build_grid, homotopy_cfg, load_config
from psilab.experiments import EXACT_TOL
from psilab.homotopy import (_band, _inverse_block, _live_band, _psi_block, endpoint_defect,
                             equ1_defect, equ2_defect, theta_discrepancy_norm)
from psilab.numerics import CircleGrid, operator_norm
from psilab.partition import build_partition
from psilab.quantize import op_quantize, t_quantize
from psilab.symbols import (HomogeneousSymbol, Loop, Symbol, SymbolClass,
                            constant_profile, gamma_profile, smash)
from psilab.presets import band_vector, homotopy_symbol

S_GRID = (1 / 2, 1 / 3, 1 / 4, 1 / 6, 1 / 8)


def shift_symbol():
    return HomogeneousSymbol(Loop.from_scalar_modes({1: 1.0}), Loop.identity(1))


def separable_symbol():
    return Symbol.separable(Loop.identity(1), constant_profile(1.0), SymbolClass.FULL_C0)


def endpoint_reference(a, p, theta, L, K, grid, ascending):
    """Slow reference: both block operators built in full and subtracted,
    block norms summed over |i| >= i0(K), in the set order of the keys (the
    former endpoint formula) or in ascending (i, j) order."""
    i0 = max(0, int(np.ceil(np.log2(max(K, 1)))))
    diff = block_difference(psi_blocks(a, 1.0, p, theta, L, grid),
                            inverse_blocks(a, p, L, grid))
    total = 0.0
    for (i, j) in (sorted(diff) if ascending else diff):
        if abs(i) >= i0:
            total += operator_norm(diff[(i, j)])
    return total


@pytest.fixture(scope="module")
def part1():
    return build_partition(1.0, 8)


class TestInverseConstruction:
    def test_zero_symbol(self, grid32, part1):
        zero = HomogeneousSymbol(Loop.constant(np.zeros((1, 1))),
                                 Loop.constant(np.zeros((1, 1))))
        B = inverse_blocks(zero, part1, 4, grid32)
        assert all(not mat.any() for mat in B.values())

    def test_banded_exactly(self, grid64, part1):
        # gamma_0 gamma_{j-i} = 0 off the band: blocks two apart vanish
        for i in range(-6, 6):
            assert not _inverse_block(shift_symbol(), part1, i, i + 2, grid64).any()
            assert not _inverse_block(shift_symbol(), part1, i + 2, i, grid64).any()

    def test_negative_scales_vanish(self, grid64, part1):
        # rescaling by 2^i pushes the window below the first nonzero mode
        B = inverse_blocks(shift_symbol(), part1, 8, grid64)
        for (i, j), mat in B.items():
            if i < 0:
                assert operator_norm(mat) == 0.0

    def test_requires_undeformed_partition(self, part1):
        # the guard of the inverse construction: a deformed partition is
        # refused, the undeformed one accepted
        with pytest.raises(ValueError, match="undeformed"):
            homotopy._check_inverse_inputs(shift_symbol(), build_partition(0.5, 4))
        homotopy._check_inverse_inputs(shift_symbol(), part1)

    def test_requires_homogeneous_symbol(self, grid32, theta, part1):
        with pytest.raises(TypeError, match="homogeneous"):
            endpoint_defect(separable_symbol(), part1, theta, [4], 8, grid32)


class TestPsiFamily:
    def test_unit_symbol_diagonal_weights(self, grid64, theta, part1):
        B = psi_blocks(HomogeneousSymbol.unit(1), 1.0, part1, theta, 6, grid64)
        modes = np.abs(grid64.modes).astype(float)
        for i in (1, 3):
            expect = np.zeros(grid64.dim)
            pos = modes > 0
            expect[pos] = part1.gamma(i, modes[pos]) ** 2 * theta(modes[pos])
            assert np.allclose(np.diag(_dense(B[(i, i)])).real, expect, atol=1e-14)

    @pytest.mark.parametrize("s", [1.0, 0.5, 0.25, 0.125])
    def test_uniform_boundedness(self, grid64, theta, s):
        # frozen sweep: the family norm never exceeds twice the symbol sup
        a = shift_symbol()
        B = psi_blocks(a, s, build_partition(s, 6), theta, 6, grid64)
        assert operator_norm(block_dense(B, 6)) <= 2.0 * homogeneous_sup_norm(a) + 1e-9

    def test_strong_continuity_surrogate(self, grid64, theta):
        # the jump of the family on a block test vector decomposes exactly
        # into the central and shoulder defects
        a = shift_symbol()
        f = band_vector(grid64, 20, seed=3)
        vec = np.zeros((13, grid64.dim), dtype=complex)
        vec[6] = f
        B0 = psi_blocks(a, 0.0, None, theta, 6, grid64)
        op_a = op_quantize(a, theta, grid64)
        for s in (0.5, 0.25):
            p = build_partition(s, 6)
            B = psi_blocks(a, s, p, theta, 6, grid64)
            jump = np.linalg.norm(block_apply(B, vec) - block_apply(B0, vec))
            [e1] = equ1_defect(a, op_a, p, [f], theta, grid64)
            [e2_right] = equ2_defect(a, p, 1, 0, [f], theta, grid64)
            [e2_left] = equ2_defect(a, p, -1, 0, [f], theta, grid64)
            parts = np.sqrt(e1 ** 2 + e2_right ** 2 + e2_left ** 2)
            assert jump == pytest.approx(parts, abs=1e-12)

    def test_adjoint_defect_blocks(self, grid64, theta, part1):
        # the Kohn-Nirenberg adjoint defect of each block scales with the
        # relative lattice resolution of its window: it decays up the scale
        # ladder but persists at the low blocks independently of N, so the
        # whole-family defect does not vanish with N (it is N-stable)
        a = HomogeneousSymbol(Loop.from_scalar_modes({1: 0.5, -1: 0.5}),
                              Loop.identity(1))
        B = psi_blocks(a, 1.0, part1, theta, 6, grid64)
        norms = [operator_norm(_band_diff(B[(i, i)], _band_adjoint(B[(i, i)])))
                 for i in range(0, 6)]
        peak = int(np.argmax(norms))
        assert all(y < x for x, y in zip(norms[peak:], norms[peak + 1:]))
        assert max(norms) <= 2.0 * homogeneous_sup_norm(a)


class TestLimitIdentities:
    def test_equ1_plateau_vector_exact_zero(self, grid64, theta):
        # plateau of the widened central bump covers the whole band
        a = shift_symbol()
        f = band_vector(grid64, 20, seed=3)
        p = build_partition(1 / 6, 8)
        op_a = op_quantize(a, theta, grid64)
        assert equ1_defect(a, op_a, p, [f], theta, grid64) == [0.0]

    def test_equ1_single_mode_on_plateau(self, grid64, theta):
        a = shift_symbol()
        f = np.zeros(grid64.dim, dtype=complex)
        f[grid64.N + 8] = 1.0  # mode 8 inside [2^-1, 2^3] plateau at s = 1/4
        p = build_partition(1 / 4, 8)
        op_a = op_quantize(a, theta, grid64)
        assert equ1_defect(a, op_a, p, [f], theta, grid64) == [0.0]

    def test_equ1_sequence_frozen(self, grid64, theta):
        a = shift_symbol()
        f = band_vector(grid64, 20, seed=3)
        op_a = op_quantize(a, theta, grid64)
        seq = [equ1_defect(a, op_a, build_partition(s, 8), [f], theta, grid64)[0]
               for s in S_GRID]
        expect = [0.4258674704178078, 0.2954844512294728, 0.16587580000408889,
                  0.0, 0.0]
        assert np.allclose(seq, expect, rtol=1e-9, atol=1e-12)
        assert all(y < x or x == y == 0.0 for x, y in zip(seq, seq[1:]))

    def test_equ2_zero_when_supports_disjoint(self, grid64, theta):
        a = shift_symbol()
        f = band_vector(grid64, 20, seed=3)
        p = build_partition(1 / 8, 8)  # shoulder support starts at 2^7
        assert equ2_defect(a, p, 1, 1, [f], theta, grid64) == [0.0]

    def test_equ2_migration(self, grid64, theta):
        a = shift_symbol()
        f = band_vector(grid64, 40, seed=4)
        vals = [equ2_defect(a, build_partition(s, 8), 1, 1, [f], theta, grid64)[0]
                for s in (1 / 2, 1 / 4, 1 / 8)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-6

    def test_equ2_zero_symbol(self, grid32, theta):
        zero = HomogeneousSymbol(Loop.constant(np.zeros((1, 1))),
                                 Loop.constant(np.zeros((1, 1))))
        f = band_vector(grid32, 8, seed=5)
        assert equ2_defect(zero, build_partition(0.5, 4), 1, 0, [f],
                           theta, grid32) == [0.0]

    def test_equ2_rejects_central_block(self, grid32, theta):
        f = band_vector(grid32, 8, seed=5)
        with pytest.raises(ValueError):
            equ2_defect(shift_symbol(), build_partition(0.5, 4), 0, 0, [f],
                        theta, grid32)


class TestEndpoint:
    def test_zero_symbol(self, grid32, theta, part1):
        zero = HomogeneousSymbol(Loop.constant(np.zeros((1, 1))),
                                 Loop.constant(np.zeros((1, 1))))
        assert endpoint_defect(zero, part1, theta, [4], 8, grid32) == [0.0]

    def test_theta_identity_beyond_threshold(self, grid64, theta, part1):
        # gamma_i gamma_j theta = gamma_i gamma_j once 2^{i-1} >= r0
        i0 = int(np.ceil(np.log2(2.0 * theta.r0)))
        for i in range(i0, i0 + 3):
            assert theta_discrepancy_norm(shift_symbol(), part1, theta, i, i,
                                          grid64) == 0.0
        assert theta_discrepancy_norm(shift_symbol(), part1, theta, i0 - 1,
                                      i0 - 1, grid64) > 1e-3

    @settings(max_examples=10, deadline=None)
    @given(k=st.integers(1, 2), seed=st.integers(0, 2**32 - 1), degree=st.integers(0, 3))
    def test_property_translation_invariance_of_blocks(self, theta, k, seed, degree):
        # T_{2^i}(gamma_0 gamma_{j-i} (x) a) = T_1(gamma_i gamma_j (x) a) for
        # every block, and from the scale where theta = 1 on the window on
        # it is the psi_1 block, which endpoint_defect relies on
        grid, L = CircleGrid(J=132, N=32, k=k), 5
        a = HomogeneousSymbol(matrix_loop(k=k, seed=seed, degree=degree),
                              matrix_loop(k=k, seed=seed + 1, degree=degree))
        p = build_partition(1.0, L)
        i_theta = int(np.ceil(np.log2(2.0 * theta.r0)))
        for i, j in _band(L):
            block = _inverse_block(a, p, i, j, grid)
            window = gamma_profile(p, i) * gamma_profile(p, j)
            T1 = t_quantize(smash(window, a), 1.0, grid)
            assert operator_norm(block - T1) <= EXACT_TOL, (i, j)
            if i >= i_theta:
                psi = _psi_block(a, p, theta, i, j, grid)
                assert operator_norm(block - psi) <= EXACT_TOL, (i, j)

    def test_tail_aggregate_vanishes(self, grid64, theta, part1):
        vals = endpoint_defect(shift_symbol(), part1, theta, (4, 6, 8), 8, grid64)
        assert max(vals) < 1e-12

    def test_full_aggregate_sees_cut_region(self, grid64, theta, part1):
        # with no tail cutoff the aggregate picks up the finite-rank
        # discrepancy at the low scales
        [val] = endpoint_defect(shift_symbol(), part1, theta, [8], 1, grid64)
        assert val > 0.1

    @pytest.mark.parametrize("K", [1, 8])
    @pytest.mark.parametrize("make_symbol", [shift_symbol, homotopy_symbol])
    def test_matches_full_build(self, grid64, theta, part1, make_symbol, K):
        a = make_symbol()
        L_list = (4, 6, 8)
        got = endpoint_defect(a, part1, theta, L_list, K, grid64)
        assert got == [endpoint_reference(a, part1, theta, L, K, grid64, True)
                       for L in L_list]
        set_order = [endpoint_reference(a, part1, theta, L, K, grid64, False)
                     for L in L_list]
        if K == 1:
            # the cut region is inside the sum; its set order differs from
            # the ascending one, so the two sums differ by reordering rounding
            assert min(got) > 0.1
            assert got == pytest.approx(set_order, rel=4 * np.finfo(float).eps, abs=0.0)
        else:
            assert got == set_order

    def test_requires_undeformed_partition(self, grid32, theta):
        with pytest.raises(ValueError, match="undeformed"):
            endpoint_defect(shift_symbol(), build_partition(0.5, 4), theta, [4], 8,
                            grid32)

    @pytest.mark.parametrize("K", [1, 8])
    @pytest.mark.parametrize("make_symbol", [shift_symbol, homotopy_symbol])
    @pytest.mark.parametrize("N", [8, 32])
    def test_live_blocks_are_the_nonzero_blocks(self, theta, part1, make_symbol, K, N):
        # the blocks kept are exactly those of the full loop over _band(L)
        # where either block is nonzero, and the aggregates of the full loop
        # (every block built, zero differences skipped) are equal bit for bit
        grid, a, L_list = CircleGrid(J=4 * N + 4, N=N, k=1), make_symbol(), (4, 6, 8)
        i0 = max(0, int(np.ceil(np.log2(K))))
        nonzero, norms = [], {}
        for i, j in _band(max(L_list)):
            if abs(i) >= i0:
                psi = _psi_block(a, part1, theta, i, j, grid)
                inverse = _inverse_block(a, part1, i, j, grid)
                if psi.any() or inverse.any():
                    nonzero.append((i, j))
                if np.any(psi - inverse):
                    norms[(i, j)] = operator_norm(psi - inverse)
        assert _live_band(part1, max(L_list), i0, N) == nonzero
        full = [0.0] * len(L_list)
        for n, L in enumerate(L_list):
            for (i, j), value in norms.items():
                if max(abs(i), abs(j)) <= L:
                    full[n] += value
        assert endpoint_defect(a, part1, theta, L_list, K, grid) == full


class TestBuildCounts:
    def test_each_operator_built_once(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "grid": {"N": 32, "J": 132},
            "homotopy_verify": {"bands": [8, 16], "L": 6, "L_list": [3, 5, 4],
                                "s_values": [0.5, 0.25, 0.125]}}))
        data = load_config(str(path))
        grid, cfg = build_grid(data), homotopy_cfg(data)
        calls = {"t_quantize": 0, "op_quantize": 0}
        for module in (homotopy, experiments):
            for name in filter(module.__dict__.__contains__, calls):
                def counted(*args, _name=name, _fn=getattr(module, name)):
                    calls[_name] += 1
                    return _fn(*args)
                monkeypatch.setattr(module, name, counted)
        experiments.run_homotopy_verify(grid, cfg)
        L_max = max(cfg["L_list"])
        i0 = int(np.ceil(np.log2(2.0 * experiments.THETA.r0)))
        # tail blocks whose bumps gamma_i, gamma_j share a mode 1 <= |m| <= N
        # inside their open supports (2^(i-1), 2^(i+1)); the others are zero
        tail = sum(1 for i in range(-L_max, L_max + 1) for j in range(-L_max, L_max + 1)
                   if abs(i) >= i0 and abs(i - j) <= 1
                   and any(2.0 ** (max(i, j) - 1) < m < 2.0 ** (min(i, j) + 1)
                           for m in range(1, grid.N + 1)))
        assert calls["op_quantize"] == 1
        assert calls["t_quantize"] == 2 * len(cfg["s_values"]) + 8 + 2 * tail
