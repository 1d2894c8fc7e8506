import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs
from scipy.sparse.linalg import LinearOperator, gmres, splu

from oracles import (BandLU, dense_matvec, dense_operator, dense_rhs,
                     eval_field, gmres_block, slab_top_transfer,
                     solve_interior, solve_zeroth, synthesize_linear_data)
from superlens_imaging.config import ExperimentConfig, build_config
from superlens_imaging.core import PhysicalConfig, gamma_eta_grid, mode_grid
from superlens_imaging.errors import (NearSingularSystem, NoConvergence,
                                      NyquistViolation, ProfileTooTall,
                                      ResonantMode)
from superlens_imaging import forward
from superlens_imaging.experiments import effective_profile
from superlens_imaging.forward import (_RESTART, Discretization, _BandedLU,
                                       _givens, _gmres, _impedance, _norm,
                                       _Operator, check_z_grid,
                                       coefficient_fields, deriv_matrix,
                                       fd_weights, reflected_flux,
                                       solve_forward)
from superlens_imaging.profiles import (band_limited_profile, builtin_glyph,
                                        image_profile, peaks_profile,
                                        trig_profile)
from superlens_imaging.tfe import u0_top

OMEGA = 2 * math.pi / 1.1

FAST = Discretization(I=33, N_f=8, M=32)
TINY = Discretization(I=19, N_f=4, M=24)  # small enough to assemble


def test_discretization_properties():
    d = Discretization()
    assert d.I == 99 and d.N_f == 12 and d.M == 64
    assert d.P == 4 * d.N_f + 1
    assert d.K == 2 * d.N_f + 1


@pytest.mark.parametrize("kwargs", [
    dict(I=24, N_f=12),            # grid cannot hold the band
    dict(M=4),
    dict(fd_order=3),
    dict(solver="direct"),
    dict(solver="dense-direct"),
    dict(iter_tol=0.0),
    dict(iter_tol=1e-3),
    dict(iter_max=0),
])
def test_discretization_validation(kwargs):
    # through the config, whose constructor builds the Discretization and
    # owns the solver key
    err = NyquistViolation if "I" in kwargs else ValueError
    with pytest.raises(err):
        ExperimentConfig(**kwargs).to_discretization()


def test_fd_weights_central_stencils():
    h = 0.37
    x = np.array([-h, 0.0, h])
    w = fd_weights(x, 0.0, 2)  # columns: value, d/dz, d2/dz2
    assert np.allclose(w[:, 0], [0.0, 1.0, 0.0])
    assert np.allclose(w[:, 1], [-0.5 / h, 0.0, 0.5 / h])
    assert np.allclose(w[:, 2], [1 / h**2, -2 / h**2, 1 / h**2])


@pytest.mark.parametrize("d", [1, 2])
def test_deriv_matrix_fourth_order(d):
    f = lambda z: np.sin(3.0 * z + 0.2)
    df = [None, lambda z: 3 * np.cos(3 * z + 0.2),
          lambda z: -9 * np.sin(3 * z + 0.2)][d]
    errs = []
    for M in (20, 40):
        z = np.linspace(0, 1, M + 1)
        D = deriv_matrix(M, 1.0 / M, d, 4)
        errs.append(np.max(np.abs(D @ f(z) - df(z))))
    assert errs[0] / errs[1] > 10  # ~2^4 with endpoint stencils


def test_flat_surface_reproduces_zeroth_order(phys_table1):
    flat = replace(phys_table1, epsilon=0.0)
    sol = solve_forward(trig_profile(), flat, Discretization(I=9, N_f=2, M=64))
    top = sol.top_grid
    assert np.max(np.abs(top - top.mean())) < 1e-10   # laterally constant
    assert abs(top.mean() - u0_top(flat)) < 1e-8      # z-accuracy at M=64
    assert sol.iterations <= 2


def test_z_discretization_fourth_order(phys_table1):
    flat = replace(phys_table1, epsilon=0.0)
    errs = []
    for M in (16, 32):
        sol = solve_forward(trig_profile(), flat,
                            Discretization(I=9, N_f=2, M=M))
        errs.append(abs(sol.top_grid.mean() - u0_top(flat)))
    assert 8 < errs[0] / errs[1] < 40


def test_second_order_stencils_less_accurate(phys_table1):
    flat = replace(phys_table1, epsilon=0.0)
    e = {}
    for p in (2, 4):
        sol = solve_forward(trig_profile(), flat,
                            Discretization(I=9, N_f=2, M=32, fd_order=p))
        e[p] = abs(sol.top_grid.mean() - u0_top(flat))
    assert e[2] > 10 * e[4]


def _operator(cfg, disc):
    return _Operator(cfg, disc, coefficient_fields(trig_profile(), cfg, disc))


def _with_level_0(x, K2):
    """The state vectors x[..., :] on all M+1 levels: level 0, the first
    K2 entries, holds u_0 = 0."""
    zeros = np.zeros((*x.shape[:-1], K2), dtype=complex)
    return np.concatenate((zeros, x), axis=-1)


def _padded_rhs(op):
    """op.rhs(), the right-hand side's level M, padded with the zeros of
    its levels 1..M-1 to a state vector."""
    zeros = np.zeros(op.dim - op.K ** 2, dtype=complex)
    return np.concatenate((zeros, op.rhs()))


def test_coefficient_fields_hold_no_level_array(phys_table1):
    # c2..c5 factor into the z-profile az and one P x P field each
    disc = Discretization()
    cf = coefficient_fields(trig_profile(), phys_table1, disc)
    zs = np.arange(disc.M + 1) * (phys_table1.a / disc.M)
    assert np.array_equal(cf.az, phys_table1.a - zs)
    for field in fields(cf):
        if field.name != "az":
            assert getattr(cf, field.name).shape == (disc.P, disc.P)


def _meshgrid_surface_fields(profile, cfg, disc):
    """f, f_x, f_y, Laplacian f from the profile's pointwise callables on
    the broadcast P x P grid."""
    xs = np.arange(disc.P) / disc.P
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    e = cfg.epsilon
    return (e * profile.sample(X, Y),
            *(e * d for d in profile.derivatives(X, Y)))


@pytest.mark.parametrize("disc", [FAST, Discretization()],
                         ids=["fast", "full"])
@pytest.mark.parametrize("builder", [trig_profile, peaks_profile])
def test_coefficient_fields_match_meshgrid_evaluation_bitwise(
        builder, disc, phys_table1, monkeypatch):
    # the cell-grid evaluation gives every field bit for bit as the
    # pointwise calls on the full grid do
    cfg = replace(phys_table1, epsilon=1e-2)
    cf = coefficient_fields(builder(), cfg, disc)
    monkeypatch.setattr(forward, "_surface_fields", _meshgrid_surface_fields)
    ref = coefficient_fields(builder(), cfg, disc)
    for field in fields(cf):
        assert np.array_equal(getattr(cf, field.name),
                              getattr(ref, field.name)), field.name


def test_pruned_lateral_transforms_match_full_fft(phys_table1):
    # the corner transforms against full two-axis FFTs of the centered
    # spectrum, with the field shifted by e^{iN_f(x+y)}
    op = _operator(phys_table1, FAST)
    K, P, N = FAST.K, FAST.P, FAST.N_f
    rng = np.random.default_rng(7)
    idx = np.arange(-N, N + 1) % P
    shift = np.exp(2j * np.pi * N * np.arange(P) / P)
    phase = np.multiply.outer(shift, shift)
    C = rng.normal(size=(5, K, K)) + 1j * rng.normal(size=(5, K, K))
    embedded = np.zeros((5, P, P), dtype=complex)
    embedded[:, idx[:, None], idx[None, :]] = C
    want = phase * np.fft.ifft2(embedded) * P * P
    got = np.full((5, P, P), np.nan, dtype=complex)  # no stale entry may leak
    op._to_field(C, got)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    U = rng.normal(size=(5, P, P)) + 1j * rng.normal(size=(5, P, P))
    want = (np.fft.fft2(U) / (P * P))[:, idx[:, None], idx[None, :]]
    got = op._to_corner(phase * U)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


_WORKSPACE_GRIDS = {
    "fast-fd4": FAST,                                 # 31 levels: 3 blocks + 7
    "fast-fd2": replace(FAST, fd_order=2),
    "pad-band-2": Discretization(I=9, N_f=1, M=16),  # P=5, K=3
    "one-block": Discretization(I=9, N_f=2, M=8),    # 7 levels: under a block
}


@pytest.mark.parametrize("grid", list(_WORKSPACE_GRIDS))
def test_apply_matches_dense_assembly(phys_table1, grid):
    # x1, x2, x1: a pad entry left over from an earlier call would show in
    # the repeat; the first result must not change when the buffers are
    # reused, so it cannot be a view of them.  The oracle is the system on
    # all M+1 levels, fed u_0 = 0: its Dirichlet rows give back 0, and its
    # rows on levels 1..M are the operator's
    op = _operator(phys_table1, _WORKSPACE_GRIDS[grid])
    K2 = op.K ** 2
    rng = np.random.default_rng(3)
    x1, x2 = [1, 1j] @ rng.normal(size=(2, 2, op.dim))
    first = op.apply(x1)
    kept = first.copy()
    wants = dense_matvec(op, _with_level_0(np.stack([x1, x2]), K2))
    assert not wants[:, :K2].any()
    for got, want in zip((first, op.apply(x2)), wants[:, K2:]):
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
    assert np.array_equal(first, kept)
    assert not any(np.shares_memory(first, buf) for buf in (op._spec, op._ws))
    assert np.array_equal(op.apply(x1), kept)


@pytest.mark.parametrize("disc", [replace(FAST, fd_order=2), FAST,
                                  Discretization()], ids=["2", "4", "full"])
def test_z_derivatives_match_csr_product_bitwise(phys_table1, disc):
    # oracle: the CSR product of the full (M+1)-level derivative matrices
    # with the state on levels 1..M and u_0 = 0 on level 0; apply reads the
    # vector where it lies, the interior levels block by block and level M
    # alone, each level over its own stencil, and every level alone must
    # agree
    op = _operator(phys_table1, disc)
    rng = np.random.default_rng(disc.fd_order)
    S = (rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)).reshape(
        op.M, op.K, op.K)
    x = S.reshape(-1)
    flat = _with_level_0(x, op.K ** 2).reshape(op.M + 1, -1)
    want = np.stack([(sp.csr_matrix(D) @ flat)[1:].reshape(S.shape)
                     for D in (op.Dz, op.Dzz)])
    # state index i, level i + 1, reads exactly the union of the nonzero
    # columns of Dz and Dzz on level i + 1 among the levels 1..M, with their
    # weights
    D = np.stack((op.Dz, op.Dzz))[:, 1:, 1:]
    for i in range(op.M):
        lo, rows = op._stencils[i]
        read = np.arange(lo, lo + rows.shape[1])
        assert np.array_equal(read, np.flatnonzero(D[:, i].any(axis=0)))
        assert np.array_equal(rows, D[:, i, read])
    block = len(op._spec[0])
    spans = [(j0, min(j0 + block, op.M - 1))
             for j0 in range(0, op.M - 1, block)]
    spans += [(i, i + 1) for i in range(op.M)]
    for j0, j1 in spans:
        out = np.full((2, j1 - j0, op.K, op.K), np.nan, dtype=complex)
        op._z_derivatives(x, j0, j1, out)
        assert np.array_equal(out, want[:, j0:j1])
    assert np.array_equal(x, S.reshape(-1))


@pytest.mark.parametrize("fd_order", [2, 4])
def test_preconditioner_inverts_flat_operator(phys_table1, fd_order):
    flat = replace(phys_table1, epsilon=0.0)
    op = _operator(flat, replace(FAST, fd_order=fd_order))
    rng = np.random.default_rng(fd_order)
    x = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
    back = op.preconditioner()(op.apply(x))
    assert np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)


@pytest.mark.parametrize("epsilon", [1e-2, 3e-2])
@pytest.mark.parametrize("fd_order", [2, 4])
def test_preconditioner_inverts_mean_coefficient_operator(fd_order, epsilon):
    # the FAST glyph's preconditioner is the exact inverse of the operator
    # whose coefficient fields are the glyph's lateral means, with c3 and c4
    # dropped; the flat-surface inverse misses it by 0.12 to 0.77
    cfg = replace(build_config(fast=True),
                  **dict(_FAST_POINTS["glyph-eps1e-2"][0], epsilon=epsilon,
                         fd_order=fd_order))
    phys, disc = cfg.to_physical(), cfg.to_discretization()
    cf = coefficient_fields(effective_profile(cfg), phys, disc)
    means = {name: np.full_like(getattr(cf, name), np.mean(getattr(cf, name)))
             for name in ("c1", "g2", "g5", "one_minus_f_over_a")}
    mean_cf = replace(cf, **means, g3=np.zeros_like(cf.g3),
                      g4=np.zeros_like(cf.g4))
    op, mean = _Operator(phys, disc, cf), _Operator(phys, disc, mean_cf)
    x = [1, 1j] @ np.random.default_rng(fd_order).normal(size=(2, op.dim))
    back = op.preconditioner()(mean.apply(x))
    assert np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)


_FLAT_MEDIA = {
    "fd4": (lambda c: c, FAST),
    "fd2": (lambda c: c, replace(FAST, fd_order=2)),
    "no-slab": (lambda c: replace(c, rho=1 + 0j, kappa=1 + 0j), FAST),
    "lossless": (lambda c: replace(c, rho=-1 + 0j, kappa=-1 + 0j), FAST),
}


@pytest.mark.parametrize("medium", list(_FLAT_MEDIA))
def test_banded_lu_matches_splu(phys_table1, medium):
    # oracle: scipy's sparse LU of the assembled block-diagonal flat
    # operator on all M+1 levels, its Dirichlet row on level 0 included,
    # with the same shared rows and per-mode diagonal; a right-hand side
    # with u_0 = 0 gets level 0 back as 0, to its pivoting's rounding
    adjust, disc = _FLAT_MEDIA[medium]
    op = _operator(adjust(replace(phys_table1, epsilon=0.0)), disc)
    K2, M = op.K * op.K, op.M
    a2 = op.cfg.a ** 2
    shared = sp.vstack([sp.csr_matrix(([1.0], ([0], [0])), shape=(1, M + 1)),
                        a2 * sp.csr_matrix(op.Dzz[1:M]),
                        sp.csr_matrix(op.Dz[M:])])
    diag = np.zeros((M + 1, K2), dtype=complex)
    diag[1:M] = a2 * op.lat.reshape(K2)
    diag[M] = -op.Z.reshape(K2) / op.cfg.rho
    A0 = sp.kron(shared, sp.identity(K2)) + sp.diags(diag.reshape(-1))
    b = [1, 1j] @ np.random.default_rng(5).normal(size=(2, op.dim))
    want = splu(A0.tocsc()).solve(_with_level_0(b, K2))
    got = op.preconditioner()(b)
    assert np.linalg.norm(want[:K2]) <= 1e-10 * np.linalg.norm(want)
    assert np.linalg.norm(got - want[K2:]) <= 1e-10 * np.linalg.norm(want)


def test_banded_lu_rejects_vanishing_pivot():
    # block 1 is all ones: its second pivot is exactly zero, while block 0
    # is regular
    shared = np.ones((3, 3))
    interior, last = np.array([1.0, 0.0]), np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(NearSingularSystem, match="pivot 1 of block 1"):
        _BandedLU(shared, interior, last)
    # the factors are real: numpy refuses to add a complex interior
    # diagonal into a float64 row
    with pytest.raises(TypeError, match="complex128"):
        _BandedLU(shared, interior + [0, 1j], last)
    # block k's diagonal is (interior[k], interior[k], last[k]); b and x go
    # level by level, so their columns are the blocks
    interior[1], last[1] = 2, 1j
    diag = np.stack((interior, interior, last))
    b = np.array([[3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    x = _BandedLU(shared, interior, last).solve(b.reshape(-1)).reshape(3, 2)
    for k in range(2):
        assert np.allclose(x[:, k], np.linalg.solve(
            shared + np.diag(diag[:, k]), b[:, k]), rtol=1e-14)


def test_banded_lu_solves_into_out(phys_table1):
    # GMRES lands each preconditioned vector straight in its Krylov row
    op = _operator(phys_table1, FAST)
    solve = op.preconditioner()
    b = [1, 1j] @ np.random.default_rng(2).normal(size=(2, op.dim))
    rows = np.full((2, op.dim), np.nan, dtype=complex)
    row = rows[1]
    assert solve(b, out=row) is row
    assert np.array_equal(row, solve(b))
    assert np.isnan(rows[0]).all()
    # GMRES preconditions its Krylov vectors in place
    inplace = b.copy()
    assert solve(inplace, out=inplace) is inplace
    assert np.array_equal(inplace.view(np.uint64), solve(b).view(np.uint64))
    # the substitution runs in out: no temporary near a vector's size
    tracemalloc.start()
    try:
        solve(b, out=row)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < row.nbytes / 4


def test_preconditioner_build_traces_no_level_array(phys_table1):
    # the factors go straight into their float64 envelope, and the blocks'
    # diagonals come in as one K^2-vector per kind of row: beyond what the
    # LU holds, building it never traces as much as one float64 array the
    # size of the (M, K, K) state
    op = _operator(phys_table1, FAST)
    tracemalloc.start()
    try:
        solve = op.preconditioner()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    lu = solve.__self__
    assert held >= lu._env.nbytes + lu._last_inv_pivot.nbytes
    assert peak - held < op.dim * 8


def test_state_is_level_major(phys_table1):
    # the state is (M, K, K) over the levels 1..M: the forcing sits on its
    # last index, level M, alone, and a vector on index 0, level 1, alone
    # reaches row 0 and the rows whose z-stencils read level 1
    op = _operator(phys_table1, FAST)
    levels = (op.M, op.K, op.K)
    assert op.dim == op.M * op.K ** 2
    r = _padded_rhs(op).reshape(levels)
    assert not r[:-1].any() and r[-1].any()
    assert np.array_equal(r, dense_rhs(op).reshape(levels))
    x = np.zeros(levels, dtype=complex)
    rng = np.random.default_rng(8)
    x[0] = rng.normal(size=x[0].shape) + 1j * rng.normal(size=x[0].shape)
    reached = op.apply(x.reshape(-1)).reshape(levels).any(axis=(1, 2))
    reads_level_1 = (op.Dz[1:, 1] != 0) | (op.Dzz[1:, 1] != 0)
    reads_level_1[0] = True
    assert np.array_equal(reached, reads_level_1)
    assert np.flatnonzero(reached).tolist() == [0, 1, 2]


def test_apply_writes_into_out(phys_table1):
    # GMRES lands each matvec in its next Krylov vector
    op = _operator(phys_table1, FAST)
    x = [1, 1j] @ np.random.default_rng(4).normal(size=(2, op.dim))
    kept = x.copy()
    rows = np.full((2, op.dim), np.nan, dtype=complex)
    row = rows[1]
    assert op.apply(x, out=row) is row
    assert np.array_equal(row, op.apply(x))
    assert np.isnan(rows[0]).all()
    assert np.array_equal(x, kept)


def _mean_blocks(op):
    """The mean-coefficient system on all M+1 levels, its Dirichlet row on
    level 0 included: its shared rows, (M+1, M+1), the real interior and
    complex last diagonals, (B,) each, and the per-mode diagonals
    (M+1, B) of the oracle.  Each coefficient field of op.cf enters at its
    lateral mean, and c3 and c4, whose means vanish, not at all.  The
    preconditioner factors its level-1..M block."""
    M, cf = op.M, op.cf
    az = cf.az[1:M, None]
    shared = np.zeros((M + 1, M + 1))
    shared[0, 0] = 1.0
    shared[1:M] = ((op.cfg.a ** 2 + az * az * np.mean(cf.g2)) * op.Dzz[1:M]
                   - az * np.mean(cf.g5) * op.Dz[1:M])
    shared[M] = op.Dz[M]
    diag = np.zeros((M + 1, op.K ** 2), dtype=complex)
    diag[1:M] = np.mean(cf.c1) * op.lat.reshape(-1)
    diag[M] = (-np.mean(cf.one_minus_f_over_a) / op.cfg.rho
               * op.Z.reshape(-1))
    return shared, diag[1].real.copy(), diag[M], diag


# (first, last) column of each row relative to the diagonal, at M = 64
_FULL_ENVELOPE = [(0, 4), (-1, 3), *[(-2, 2)] * 60, (-4, 1), (-4, 0)]


@pytest.mark.parametrize("grid", ["full", "fast-fd2"])
def test_banded_lu_holds_fill_envelope(phys_table1, grid):
    # oracle: the same LU in full band storage; the envelope keeps each row
    # from its first to its last entry that is nonzero in some block of the
    # band factors, with those entries and every solve bit for bit equal.
    # The band LU of the system on all M+1 levels, whose level-0 row is the
    # identity, holds the same factors on levels 1..M, but for the L
    # entries of their level-0 column, and solves a right-hand side with
    # u_0 = 0 to the same levels 1..M, bit for bit
    disc = {"full": Discretization(), "fast-fd2": replace(FAST, fd_order=2)}
    op = _operator(phys_table1, disc[grid])
    shared, interior, last, diag = _mean_blocks(op)
    lu, ref = (_BandedLU(shared[1:, 1:], interior, last),
               BandLU(shared[1:, 1:], diag[1:]))
    assert np.array_equal(op.preconditioner().__self__._env, lu._env)
    full = BandLU(shared, diag)
    p = ref.p
    assert full.p == p
    band = full.ab[1:].copy()
    for i in range(p):
        band[i, p - 1 - i] = 0  # l_{i+1, 0}
    assert np.array_equal(ref.ab, band)

    first = {i: j0 - i for i, _, j0 in lu._lower}
    envelope = [(first.get(i, 0), j1 - i) for i, _, j1, _ in lu._upper[::-1]]
    nonzero = [np.flatnonzero(row) - p for row in (ref.ab != 0).any(axis=2)]
    assert envelope == [(nz[0], nz[-1]) for nz in nonzero]
    assert len(lu._env) == {"full": 321, "fast-fd2": 95}[grid]
    if grid == "full":
        assert envelope == _FULL_ENVELOPE
        assert lu._env.nbytes == 1_605_000
        assert lu._last_inv_pivot.nbytes == 10_000
    # every entry is real but the last row's pivot, whose real part the
    # float64 envelope holds
    rows = [ref.ab[i, p + f:p + l + 1] for i, (f, l) in enumerate(envelope)]
    want = np.concatenate(rows)
    assert not want[:-1].imag.any()
    assert lu._env.dtype == np.float64
    assert np.array_equal(lu._env, want.real)
    assert np.array_equal(lu._last_inv_pivot, ref.ab[-1, p])

    b = [1, 1j] @ np.random.default_rng(6).normal(size=(2, op.dim))
    x = lu.solve(b)
    assert np.array_equal(x, ref.solve(b))
    K2 = op.K ** 2
    x_full = full.solve(_with_level_0(b, K2))
    assert not x_full[:K2].any() and np.array_equal(x, x_full[K2:])


def test_givens_matches_lapack_lartg():
    # oracle: LAPACK's zlartg, as scipy exposes it
    lartg = get_lapack_funcs("lartg", dtype=complex)
    rng = np.random.default_rng(11)
    z = (rng.normal(size=(200, 2, 2)) @ [1, 1j]) * 10.0 ** rng.uniform(
        -3, 3, size=(200, 2))
    pairs = [tuple(map(complex, fg)) for fg in z]
    pairs += [(0j, 1 - 2j), (0j, 3j), (2 + 1j, 0j), (0j, 0j),
              (1e-200 + 0j, 1 + 0j), (1e200 + 1e199j, 3e199 + 0j)]
    for f, g in pairs:
        c, s, r = _givens(f, g)
        want = lartg(f, g)
        for got, ref in zip((c, s, r), want):
            assert abs(got - ref) <= 1e-15 * max(abs(ref), 1e-300)
        assert isinstance(c, float) and c >= 0
        assert abs(c * f + s * g - r) <= 1e-15 * abs(r) + 1e-300
        assert abs(-s.conjugate() * f + c * g) <= 1e-15 * max(abs(f), abs(g))


def _nonnormal_system(coupling, n=50):
    """A row-scaled complex system whose diagonal does not commute with
    the rest: a spread diagonal, a dense coupling and an upper-triangular
    part.  The diagonal preconditioner undoes the row scaling only."""
    rng = np.random.default_rng(0)
    d = (1.2 + rng.uniform(0.5, 2, n)
         * np.exp(2j * np.pi * rng.uniform(size=n)))
    G = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2 * n)
    A = (np.diag(d) + coupling * G + 2 * np.triu(G, 1)) * rng.uniform(
        0.5, 2, n)[:, None]
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    return A, b


@pytest.mark.parametrize("coupling, rtol, iter_max, expect", [
    (0.02, 1e-5, 200, "one cycle"),
    (0.5, 1e-10, 200, "two restarts"),
    (0.5, 1e-10, 60, "budget spent"),
    (1.0, 1e-10, 200, "budget spent"),
])
def test_gmres_matches_scipy(coupling, rtol, iter_max, expect):
    # oracle: scipy's restarted GMRES with the settings _gmres documents
    A, b = _nonnormal_system(coupling)
    dinv = 1 / np.diag(A)
    x, iterations, res = _gmres(
        lambda v, out=None: np.matmul(A, v, out=out),
        lambda v, out=None: np.multiply(dinv, v, out=out),
        b, b.size, np.empty_like(b), rtol, iter_max)

    restart = min(_RESTART, iter_max)
    cycles = -(-iter_max // restart)
    calls = []
    want, _ = gmres(A, b, M=np.diag(dinv), rtol=rtol, atol=0.0,
                    restart=restart, maxiter=cycles,
                    callback=calls.append, callback_type="pr_norm")
    assert iterations == len(calls)
    assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)
    assert res == pytest.approx(
        np.linalg.norm(b - A @ x) / np.linalg.norm(b), rel=1e-12)

    converged = np.linalg.norm(A @ x - b) <= rtol * np.linalg.norm(b)
    if expect == "one cycle":
        assert converged and iterations < restart
    elif expect == "two restarts":
        assert converged and iterations > 2 * restart
    else:  # iter_max is rounded up to whole cycles: 200 allows 220
        assert not converged and iterations == cycles * restart


def _glyph_fast_system():
    # the FAST glyph eps=1e-2 point of _FAST_POINTS: 13 iterations.  Each
    # system gives (matvec, psolve, dense b, entries of b's nonzero tail,
    # work, rtol, iter_max, iterations)
    cfg = replace(build_config(fast=True), **_FAST_POINTS["glyph-eps1e-2"][0])
    phys, disc = cfg.to_physical(), cfg.to_discretization()
    op = _Operator(phys, disc,
                   coefficient_fields(effective_profile(cfg), phys, disc))
    return (op.apply, op.preconditioner(), _padded_rhs(op), op.K ** 2,
            op.work, 0.05 * disc.iter_tol, disc.iter_max, 13)


def _two_restart_system(zeroed=0):
    # test_gmres_matches_scipy's "two restarts" problem: the later cycles
    # reuse the Krylov vectors the first one allocated
    A, b = _nonnormal_system(0.5)
    b[:zeroed] = 0
    dinv = 1 / np.diag(A)
    return (lambda v, out=None: np.matmul(A, v, out=out),
            lambda v, out=None: np.multiply(dinv, v, out=out),
            b, b.size - zeroed, np.empty_like(b), 1e-10, 200, None)


def _trailing_rhs_system():
    # the same problem with the first half of b zeroed, given as its tail
    return _two_restart_system(zeroed=25)


@pytest.mark.parametrize(
    "system", [_glyph_fast_system, _two_restart_system, _trailing_rhs_system],
    ids=["glyph-fast", "two-restarts", "trailing-rhs"])
def test_gmres_matches_block_basis_bitwise(system):
    # oracle: the same GMRES with its Krylov basis in one block, its
    # solution update one einsum over it and b dense.  Every matvec and
    # preconditioner call NaN-fills work before and after it runs, so
    # _gmres may keep nothing in work across one
    matvec, psolve, b, tail, work, rtol, iter_max, iterations = system()

    def clobbering(f):
        def call(v, out):
            work.fill(np.nan)
            out = f(v, out=out)
            work.fill(np.nan)
            return out
        return call

    x, got_iterations, res = _gmres(clobbering(matvec), clobbering(psolve),
                                    b[-tail:], b.size, work, rtol, iter_max)
    want, want_iterations, want_rnorm = gmres_block(matvec, psolve, b, rtol,
                                                    iter_max)
    assert np.array_equal(x.view(np.uint64), want.view(np.uint64))
    assert got_iterations == want_iterations
    assert res == want_rnorm / _norm(b)
    if iterations is None:
        assert got_iterations > 2 * min(_RESTART, iter_max)
    else:
        assert got_iterations == iterations


def test_solve_traces_less_than_a_block_basis():
    # FAST trig solve, 6 iterations: its Krylov vectors are allocated as
    # reached, so the traced peak stays below one (_RESTART + 1, n) block of
    # them
    cfg = replace(build_config(fast=True), **_FAST_POINTS["trig-eps1e-3"][0])
    profile, phys, disc = (effective_profile(cfg), cfg.to_physical(),
                           cfg.to_discretization())
    n = disc.K ** 2 * disc.M
    tracemalloc.start()
    try:
        sol = solve_forward(profile, phys, disc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.iterations == 6 and n == 9248
    assert peak < (_RESTART + 1) * n * 16


def _owned_bytes(obj) -> int:
    return sum(a.nbytes for a in vars(obj).values()
               if isinstance(a, np.ndarray) and a.flags.owndata)


def _traced_solve(params):
    """A FAST solve at params, traced: (solution, traced peak, bytes of one
    vector, bytes of the LU factors, the operator's arrays and the
    coefficient fields plus 160 KiB for the Hessenberg matrix (8 KB) and
    numpy's casting buffers (up to 8192 complex values per ufunc call)).
    A solve traces about 115-120 KB of those, 0.78-0.81 FAST vectors, so
    neither one more vector nor half of one fits."""
    cfg = replace(build_config(fast=True), **params)
    profile, phys, disc = (effective_profile(cfg), cfg.to_physical(),
                           cfg.to_discretization())
    cf = coefficient_fields(profile, phys, disc)
    op = _Operator(phys, disc, cf)
    lu = op.preconditioner().__self__
    # the first solve in a process may import numpy.fft (numpy imports it
    # lazily); trace a later one
    solve_forward(profile, phys, disc)
    tracemalloc.start()
    try:
        sol = solve_forward(profile, phys, disc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fixed = (_owned_bytes(lu) + _owned_bytes(op)
             + sum(getattr(cf, f.name).nbytes for f in fields(cf))
             + 160 * 2**10)
    return sol, peak, 16 * op.dim, fixed


def test_solve_traces_within_its_working_set():
    # FAST trig solve, 6 iterations in one GMRES cycle.  Its traced peak
    # holds the k + 1 Krylov vectors, x and _traced_solve's fixed bytes,
    # the operator's buffer among them, which GMRES borrows for its
    # temporaries: no dense b and no scratch vector.  The fixed bytes'
    # 160 KiB is 1.11 vectors at this size, and the solve takes 0.78 of
    # them, so half a vector more overruns the budget.
    sol, peak, vector, fixed = _traced_solve(_FAST_POINTS["trig-eps1e-3"][0])
    k = sol.iterations
    assert k == 6 and vector == 147_968
    assert peak <= (k + 2) * vector + fixed


def test_two_cycle_solve_traces_one_restart_of_vectors():
    # FAST glyph eps=3e-2 solve, 30 iterations in two GMRES cycles
    # (22 + 8).  Its traced peak holds the _RESTART + 1 Krylov vectors
    # of the full first cycle, x and _traced_solve's fixed bytes, the
    # operator's buffer among them, which the second cycle's update is
    # summed in: no dense b and no scratch vector.
    sol, peak, vector, fixed = _traced_solve(
        dict(_FAST_POINTS["glyph-eps1e-2"][0], epsilon=3e-2))
    assert sol.iterations == 30
    assert peak <= (_RESTART + 2) * vector + fixed


def test_gmres_zero_rhs():
    x, iterations, res = _gmres(None, None, np.zeros(2, dtype=complex), 4,
                                None, 1e-10, 10)
    assert iterations == 0 and res == 0.0 and x.shape == (4,) and not x.any()


@pytest.mark.parametrize("profile, epsilon, min_cycles", [
    ("trig", 1e-3, 1),
    ("glyph", 1e-2, 2),
])
def test_solve_makes_one_matvec_per_iteration_and_cycle(
        phys_table1, monkeypatch, profile, epsilon, min_cycles):
    # GMRES ends every cycle with the true residual b - A x; the residual
    # gate reuses the last one instead of making another matvec
    counts = {"apply": 0, "psolve": 0}
    apply, preconditioner = _Operator.apply, _Operator.preconditioner

    def counting_apply(self, x, out=None):
        counts["apply"] += 1
        return apply(self, x, out=out)

    def counting_preconditioner(self):
        solve = preconditioner(self)

        def counted(v, out=None):
            counts["psolve"] += 1
            return solve(v, out=out)
        return counted

    monkeypatch.setattr(_Operator, "apply", counting_apply)
    monkeypatch.setattr(_Operator, "preconditioner", counting_preconditioner)
    surface = (trig_profile() if profile == "trig" else
               band_limited_profile(image_profile(builtin_glyph()), FAST.N_f,
                                    quad_I=FAST.P))
    sol = solve_forward(surface, replace(phys_table1, epsilon=epsilon), FAST)
    # one matvec per iteration and one for the residual at each cycle's
    # end; one preconditioner apply per iteration and one per cycle start,
    # the first cycle's preconditioned b also setting the inner tolerance
    cycles = counts["apply"] - sol.iterations
    assert cycles >= min_cycles
    assert counts["psolve"] == sol.iterations + cycles


def test_level_0_is_the_dirichlet_identity(phys_table1):
    # oracle: the collocation matrix on all M+1 levels.  Its level-0 rows
    # are the identity on level 0 and its forcing is 0 there, so u_0 = 0;
    # its level-0 columns then contribute nothing, and the system on levels
    # 1..M is its level-1..M block, the operator's
    op = _operator(phys_table1, TINY)
    K2 = op.K ** 2
    A = dense_operator(op)
    assert np.array_equal(A[:K2, :K2], np.eye(K2))
    assert not A[:K2, K2:].any()
    x = [1, 1j] @ np.random.default_rng(10).normal(size=(2, op.dim))
    want = _with_level_0(A[K2:, K2:] @ x, K2)
    got = A @ _with_level_0(x, K2)
    assert np.array_equal(got[:K2], want[:K2])
    assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


def test_dense_and_iterative_agree(phys_table1):
    # oracle: the collocation matrix on all M+1 levels, assembled densely
    # from the coefficient fields: its level-1..M block checked against the
    # operator, and the whole system solved directly
    op = _operator(phys_table1, TINY)
    K2 = op.K ** 2
    A = dense_operator(op)
    block = A[K2:, K2:]
    x = [1, 1j] @ np.random.default_rng(9).normal(size=(2, op.dim))
    assert (np.linalg.norm(op.apply(x) - block @ x)
            <= 1e-14 * np.linalg.norm(block @ x))
    want = np.linalg.solve(A, _with_level_0(_padded_rhs(op), K2))
    assert np.linalg.norm(want[:K2]) <= 1e-14 * np.linalg.norm(want)
    got = solve_interior(trig_profile(), phys_table1, TINY).reshape(-1)
    assert (np.linalg.norm(got - want[K2:])
            < 10 * TINY.iter_tol * np.linalg.norm(want))


# the four forward-solve benchmark points on the --fast grid, and the GMRES
# iterations each takes; the benchmark smoke test asserts their sum
_FAST_POINTS = {
    "trig-eps1e-3": (dict(profile="1", rho=-1 + 0.01j, kappa=-1 + 0.01j,
                          epsilon=1e-3), 6),
    "bumps-loss1e-3": (dict(profile="2", rho=-1 + 0.001j,
                            kappa=-1 + 0.001j, epsilon=1e-3), 6),
    "glyph-eps1e-3": (dict(profile="3", rho=-1 + 0.001j, kappa=-1 + 0.001j,
                           epsilon=1e-3), 6),
    "glyph-eps1e-2": (dict(profile="3", rho=-1 + 0.001j, kappa=-1 + 0.001j,
                           epsilon=1e-2), 13),
}


@pytest.mark.parametrize("point", list(_FAST_POINTS))
def test_fast_benchmark_points_iteration_counts(point):
    params, iterations = _FAST_POINTS[point]
    cfg = replace(build_config(fast=True), **params)
    sol = solve_forward(effective_profile(cfg), cfg.to_physical(),
                        cfg.to_discretization())
    assert sol.iterations == iterations
    assert sol.residual <= cfg.iter_tol


def test_fast_glyph_eps5e_2_iterations():
    # the mean-coefficient preconditioner's reach: the FAST glyph at
    # eps=5e-2 takes 50 iterations in three GMRES cycles (22 + 22 + 6),
    # where the flat-surface one took 88
    cfg = replace(build_config(fast=True),
                  **dict(_FAST_POINTS["glyph-eps1e-2"][0], epsilon=5e-2))
    sol = solve_forward(effective_profile(cfg), cfg.to_physical(),
                        cfg.to_discretization())
    assert sol.iterations == 50
    assert sol.residual <= cfg.iter_tol


def test_no_convergence_raises(phys_table1):
    wavy = replace(phys_table1, epsilon=0.02)
    with pytest.raises(NoConvergence):
        solve_forward(trig_profile(), wavy, replace(FAST, iter_max=1))


def test_profile_too_tall(phys_table1):
    with pytest.raises(ProfileTooTall):
        solve_forward(trig_profile(), replace(phys_table1, epsilon=0.2), FAST)


def test_solve_rejects_a_z_grid_that_cannot_resolve_the_wave(monkeypatch):
    # a 1e-3 wavelength over a = 0.1: the library solve checks the z-grid
    # as the config does, names the smallest M that passes, and raises
    # before it builds any array
    monkeypatch.setattr(forward, "coefficient_fields",
                        lambda *args: pytest.fail("built the fields"))
    phys = PhysicalConfig(omega=2 * math.pi / 1e-3, epsilon=1e-3)
    with pytest.raises(NyquistViolation, match="the z-grid needs") as exc:
        solve_forward(trig_profile(), phys, FAST)
    M = int(str(exc.value).rsplit(">= ", 1)[1])
    assert M == 1257
    check_z_grid(phys, replace(FAST, M=M))
    with pytest.raises(NyquistViolation, match="the z-grid needs"):
        solve_forward(trig_profile(), phys, replace(FAST, M=M - 1))


@pytest.mark.parametrize("periods", [(0.5, 0.5), (1.0, 2.0)])
def test_non_unit_period_rejected(phys_table1, periods):
    # the profiles are functions on the unit cell: sampling one over another
    # period would solve a different surface
    cfg = replace(phys_table1, period1=periods[0], period2=periods[1])
    with pytest.raises(ValueError, match="period1 and period2 must be 1"):
        solve_forward(trig_profile(), cfg, FAST)


@pytest.fixture(scope="module")
def interior_table1(phys_table1, disc_default):
    return solve_interior(trig_profile(), phys_table1, disc_default)


def test_solution_shapes(sol_table1, interior_table1, disc_default):
    I, K, M = disc_default.I, disc_default.K, disc_default.M
    assert interior_table1.shape == (M, K, K)
    assert sol_table1.top_grid.shape == (I, I)
    assert sol_table1.top.W == disc_default.N_f
    assert sol_table1.residual < disc_default.iter_tol


def test_dirichlet_bottom_row(phys_table1):
    # oracle: the FAST system on all M+1 levels, its Dirichlet row on level
    # 0 included, solved by scipy's GMRES through the dense assembly's row
    # blocks (the whole matrix would take 1.46 GB), preconditioned by the
    # band LU of its mean-coefficient part: every mode vanishes on level 0,
    # and levels 1..M agree with the solve on the operator's levels 1..M
    op = _operator(phys_table1, FAST)
    K2 = op.K ** 2
    n = op.dim + K2
    shared, _, _, diag = _mean_blocks(op)
    A = LinearOperator((n, n), matvec=lambda v: dense_matvec(op, v),
                       dtype=complex)
    mean = LinearOperator((n, n), matvec=BandLU(shared, diag).solve,
                          dtype=complex)
    u, info = gmres(A, _with_level_0(_padded_rhs(op), K2), M=mean,
                    rtol=0.05 * FAST.iter_tol, atol=0.0)
    assert info == 0
    assert np.max(np.abs(u[:K2])) < 1e-12
    got = solve_interior(trig_profile(), phys_table1, FAST).reshape(-1)
    assert (np.linalg.norm(got - u[K2:])
            < 10 * FAST.iter_tol * np.linalg.norm(u))


def test_epsilon_consistency_fast(phys_table1):
    # lateral band of 8 holds the second-order harmonics of the ring-3
    # profile; M=64 keeps the z-discretization floor below the remainder
    disc = Discretization(I=33, N_f=8, M=64)
    prof = trig_profile()
    lin = {}
    defect = {}
    for eps in (1e-3, 5e-4):
        cfg = replace(phys_table1, epsilon=eps)
        sol = solve_forward(prof, cfg, disc)
        model = synthesize_linear_data(prof, cfg).truncated(disc.N_f)
        diff = sol.top.values - model.values
        defect[eps] = float(np.sqrt(np.sum(np.abs(diff) ** 2)))
        lin[eps] = float(np.sqrt(np.sum(np.abs(model.values) ** 2)))
    ratio = defect[1e-3] / defect[5e-4]
    assert 3.0 < ratio < 5.0
    assert defect[1e-3] < 0.05 * lin[1e-3]  # remainder is genuinely small


def test_solver_matches_linear_model_at_small_eps(phys_table1):
    cfg = replace(phys_table1, epsilon=1e-4)
    sol = solve_forward(trig_profile(), cfg, Discretization(I=33, N_f=8))
    model = synthesize_linear_data(trig_profile(), cfg)
    # the abs floor admits the second-order content (~eps^2) on modes the
    # surface spectrum misses entirely
    for n in [(0, 0), (1, 0), (2, 2), (-3, 1), (0, -2)]:
        got = sol.top.coeff(n)
        want = model.coeff(n)
        assert got == pytest.approx(want, rel=5e-3, abs=1e-6)


def test_slab_impedance_no_slab_reduction(phys_vacuum):
    for n in [(0, 0), (1, 0), (3, -2)]:
        Z, zeta, _, _ = _impedance(*n, phys_vacuum)
        g = complex(gamma_eta_grid(*n, phys_vacuum)[0])
        assert Z == pytest.approx(1j * g, rel=1e-12)
        if n == (0, 0):
            want = (-2j * phys_vacuum.omega
                    * np.exp(-1j * phys_vacuum.omega * phys_vacuum.b)
                    * np.exp(1j * phys_vacuum.omega * phys_vacuum.h))
            assert zeta == pytest.approx(want, rel=1e-12)
        else:
            assert zeta == 0


def test_slab_impedance_resonant_mode_raises():
    cfg = PhysicalConfig(omega=2 * math.pi)  # |alpha_(1,0)| == omega exactly
    with pytest.raises(ResonantMode, match="resonant mode"):
        _impedance(1, 0, cfg)


@pytest.mark.parametrize("b", [0.2, 0.5, 1.0, 2.0, 11.0])
def test_slab_top_transfer_matches_linear_solve(b):
    # u_n(b) = G_n u_n(a) + g_n on the FAST window against a 2x2 solve per
    # mode; the lens amplifies evanescent modes by e^{|Im eta_n| h}, which
    # a closed form in the growing e^{-i eta_n h} loses to cancellation
    # long before it overflows
    cfg = build_config(fast=True, overrides=[f"b={b}"]).to_physical()
    n1, n2 = mode_grid(FAST.N_f)
    rng = np.random.default_rng(7)
    u_a = rng.standard_normal(n1.shape) + 1j * rng.standard_normal(n1.shape)
    _, _, G, g = _impedance(n1, n2, cfg)
    want = slab_top_transfer(u_a, n1, n2, cfg)
    # mode by mode; the absolute floor only admits the few bits a
    # subnormal keeps, where a mode decays below 1e-300 at b = 11
    np.testing.assert_allclose(G * u_a + g, want, rtol=1e-12, atol=1e-300)


def test_slab_impedance_consistent_with_zeroth_order(phys_table1):
    # eliminate the slab, solve the reduced 1D problem below it, compare
    # against the four-coefficient solution
    Z, zeta, _, _ = _impedance(0, 0, phys_table1)
    om, a, rho = phys_table1.omega, phys_table1.a, phys_table1.rho
    E = (zeta / rho) / (om * np.cos(om * a) - (Z / rho) * np.sin(om * a))
    z0 = solve_zeroth(phys_table1)
    got = complex(eval_field(z0, phys_table1, np.array(a - 1e-12)))
    assert E * np.sin(om * (a - 1e-12)) == pytest.approx(got, rel=1e-9)


def test_lossless_media_conserve_flux(sol_vacuum_peaks, phys_vacuum):
    flux = reflected_flux(sol_vacuum_peaks.top, phys_vacuum)
    assert flux == pytest.approx(1.0, abs=1e-6)


def test_lossy_slab_absorbs(sol_table1, phys_table1):
    assert reflected_flux(sol_table1.top, phys_table1) < 1.0


def test_band_limited_image_profile_solves(phys_table1):
    raw = image_profile(builtin_glyph())
    prof = band_limited_profile(raw, FAST.N_f, quad_I=FAST.P)
    sol = solve_forward(prof, phys_table1, FAST)
    assert np.all(np.isfinite(sol.top_grid))
    assert sol.residual < FAST.iter_tol
    # the solver band-limits a raw indicator profile the same way
    raw_sol = solve_forward(raw, phys_table1, FAST)
    assert np.array_equal(raw_sol.top_grid, sol.top_grid)
    assert raw_sol.iterations == sol.iterations
