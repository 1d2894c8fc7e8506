"""Independent reference implementations the tests check the package against.

Each one reaches its answer by a different route from the closed forms in
``superlens_imaging``: the Cramer solution of the 4x4 layer system (its
determinant sigma_n, the flat-surface field's four coefficients, the
first-order top coefficient, the flat top value and the scaling factor),
where the package eliminates the slab in bounded terms; the 4x4 transfer
matrix whose determinant sigma_n must equal, the slab's top transfer by a
2x2 linear solve per mode, an ODE quadrature of the first-order problem,
the flat-surface field and its z-derivative evaluated from its four
coefficients and substituted back into its defining conditions, the
analytic spectrum of profile 1, the pointwise Fourier series of a
band-limited surface and its derivatives, the real synthesis by
real-output inverse FFTs, inverse-crime linear data, residual tails summed
one cut-off at a time, the forward operator assembled as a dense matrix
from the convolution matrices of its coefficient fields, the
mean-coefficient preconditioner's LU in full band storage, and restarted
GMRES with its Krylov basis in one block.  They live beside the tests,
not in the package, so that the code under test does not ship its own
checks.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from superlens_imaging.core import (CANCEL_RTOL, Mode, PhysicalConfig,
                                   _vanishes, alpha_grid, gamma_eta_grid,
                                   mode_grid, tau_of)
from superlens_imaging.errors import NearSingularSystem, ResonantMode
from superlens_imaging.forward import (_RESTART, Discretization, _givens,
                                       _gmres, _norm, _Operator,
                                       coefficient_fields)
from superlens_imaging.profiles import SurfaceProfile, profile_spectrum
from superlens_imaging.spectral import SpectrumField
from superlens_imaging.tfe import ZERO


# --- the Cramer solution of the 4x4 layer system ----------------------------

@dataclass(frozen=True)
class Scalars:
    """Bundle of the per-mode quantities the layer algebra needs."""
    gamma: complex
    eta: complex
    phi: complex
    psi: complex


def mode_scalars(n: Mode, cfg: PhysicalConfig) -> Scalars:
    """gamma_n, eta_n, phi_n = eta_n/rho + gamma_n and psi_n = eta_n/rho -
    gamma_n at one mode; raises ResonantMode where gamma_n or eta_n
    vanishes."""
    g, e, _ = gamma_eta_grid(n[0], n[1], cfg)
    for name, root in (("gamma", g), ("eta", e)):
        if _vanishes(root, cfg):
            raise ResonantMode(f"{name} vanishes at mode {n}")
    g, e = complex(g), complex(e)
    return Scalars(gamma=g, eta=e, phi=e / cfg.rho + g, psi=e / cfg.rho - g)


def sigma_n(n: Mode, cfg: PhysicalConfig) -> complex:
    """Determinant of the 4x4 layer system at one mode, in its Cramer
    closed form (phi^2 - q psi^2 + E (q - 1) phi psi) e^{-i(gamma a + eta
    h)} with q = e^{2i eta h} and E = e^{2i gamma a}; raises
    NearSingularSystem where its two terms cancel below CANCEL_RTOL, and
    OverflowError where a factor leaves float range."""
    s = mode_scalars(n, cfg)
    q = cmath.exp(2j * s.eta * cfg.h)
    t1 = s.phi**2 - q * s.psi**2
    t2 = cmath.exp(2j * s.gamma * cfg.a) * (q - 1) * s.phi * s.psi
    if abs(t1 + t2) < CANCEL_RTOL * (abs(t1) + abs(t2)):
        raise NearSingularSystem(f"layer determinant cancels at mode {n}")
    return (t1 + t2) * cmath.exp(-1j * (s.gamma * cfg.a + s.eta * cfg.h))


@dataclass(frozen=True)
class ZerothOrder:
    """Flat-surface field: A e^{i eta z} + B e^{-i eta z} inside the slab,
    C (e^{i gamma z} - e^{-i gamma z}) below it, which vanishes at z = 0."""
    A: complex
    B: complex
    C: complex


def solve_zeroth(cfg: PhysicalConfig) -> ZerothOrder:
    """Cramer solution of the zero-mode 4x4 system (forcing tau in the top
    Robin row; all other modes are unforced and vanish)."""
    s = mode_scalars(ZERO, cfg)
    sig = sigma_n(ZERO, cfg)
    tau = tau_of(cfg)
    a = cfg.a
    e, g = s.eta, s.gamma
    A = (1j * cmath.exp(-1j * e * a) * tau / sig) * (
        s.psi * cmath.exp(-1j * g * a) - s.phi * cmath.exp(1j * g * a))
    B = (1j * cmath.exp(1j * e * a) * tau / sig) * (
        s.phi * cmath.exp(-1j * g * a) - s.psi * cmath.exp(1j * g * a))
    C = -2j * e * tau / (cfg.rho * sig)
    return ZerothOrder(A=A, B=B, C=C)


def u0_top(cfg: PhysicalConfig) -> complex:
    """The flat-surface field at z = b from its Cramer coefficients."""
    z0 = solve_zeroth(cfg)
    e = mode_scalars(ZERO, cfg).eta
    return z0.A * cmath.exp(1j * e * cfg.b) + z0.B * cmath.exp(-1j * e * cfg.b)


def first_order_top(n: Mode, g_n: complex, cfg: PhysicalConfig) -> complex:
    """First-order top coefficient driven by the surface coefficient g_n."""
    s = mode_scalars(n, cfg)
    s0 = mode_scalars(ZERO, cfg)
    sig = sigma_n(n, cfg)
    C0 = solve_zeroth(cfg).C
    return -(8j / (cfg.rho * sig)) * C0 * s0.gamma * s.gamma * s.eta * g_n


def scaling_factor(n: Mode, cfg: PhysicalConfig) -> complex:
    """s_n as the reciprocal of the first-order top coefficient that a
    unit surface coefficient drives."""
    return 1 / first_order_top(n, 1, cfg)


# --- the other references ---------------------------------------------------

def transfer_matrix(n: Mode, cfg: PhysicalConfig) -> np.ndarray:
    """4x4 system matrix coupling (A, B, C, D) through the top Robin
    condition, the two interface conditions at z = a, and the bottom
    Dirichlet condition."""
    s = mode_scalars(n, cfg)
    a, b = cfg.a, cfg.b
    e, g = s.eta, s.gamma
    r = cfg.rho
    return np.array([
        [1j * s.psi * cmath.exp(1j * e * b), -1j * s.phi * cmath.exp(-1j * e * b), 0, 0],
        [cmath.exp(1j * e * a), cmath.exp(-1j * e * a),
         -cmath.exp(1j * g * a), -cmath.exp(-1j * g * a)],
        [(1j / r) * e * cmath.exp(1j * e * a), -(1j / r) * e * cmath.exp(-1j * e * a),
         -1j * g * cmath.exp(1j * g * a), 1j * g * cmath.exp(-1j * g * a)],
        [0, 0, 1, 1],
    ], dtype=complex)


def slab_top_transfer(u_a: np.ndarray, n1: np.ndarray, n2: np.ndarray,
                      cfg: PhysicalConfig) -> np.ndarray:
    """u_n(b) from u_n(a) by one linear solve per mode, not a closed form.

    Inside the slab u_n = P e^{i eta (z - b)} + Q e^{-i eta (z - b)}, with
    its amplitudes P, Q taken at the top face z = b, so that no entry of
    the system grows with the thickness: the trace at z = a, multiplied
    by e^{i eta h}, gives P + e^{2i eta h} Q = e^{i eta h} u_n(a), and the
    top radiation row psi P - phi Q = -i tau [n = 0].  Then
    u_n(b) = P + Q.
    """
    gam, eta, _ = gamma_eta_grid(n1, n2, cfg)
    top = np.empty(np.shape(u_a), dtype=complex)
    for k in np.ndindex(top.shape):
        g, e = complex(gam[k]), complex(eta[k])
        phi, psi = e / cfg.rho + g, e / cfg.rho - g
        e1 = cmath.exp(1j * e * cfg.h)
        forcing = -1j * tau_of(cfg) if n1[k] == 0 and n2[k] == 0 else 0
        P, Q = np.linalg.solve(np.array([[1, e1 * e1], [psi, -phi]]),
                               np.array([e1 * u_a[k], forcing]))
        top[k] = P + Q
    return top


def eval_field(z0: ZerothOrder, cfg: PhysicalConfig, z):
    """The flat-surface field of cfg at the heights z: C e^{i gamma z} + D
    e^{-i gamma z} below z = a, with D = -C, and A e^{i eta z} + B
    e^{-i eta z} from there."""
    z = np.asarray(z, dtype=float)
    s0 = mode_scalars(ZERO, cfg)
    below = (z0.C * np.exp(1j * s0.gamma * z)
             - z0.C * np.exp(-1j * s0.gamma * z))
    slab = z0.A * np.exp(1j * s0.eta * z) + z0.B * np.exp(-1j * s0.eta * z)
    return np.where(z < cfg.a, below, slab)


def eval_dz(z0: ZerothOrder, cfg: PhysicalConfig, z, side: str = "auto"):
    """d/dz of the flat-surface field; ``side`` breaks the tie exactly at
    z = a."""
    z = np.asarray(z, dtype=float)
    s0 = mode_scalars(ZERO, cfg)
    below = 1j * s0.gamma * (
        z0.C * np.exp(1j * s0.gamma * z) + z0.C * np.exp(-1j * s0.gamma * z))
    slab = 1j * s0.eta * (
        z0.A * np.exp(1j * s0.eta * z) - z0.B * np.exp(-1j * s0.eta * z))
    if side == "below":
        return below
    if side == "slab":
        return slab
    return np.where(z < cfg.a, below, slab)


def first_order_ode_oracle(n: Mode, g_n: complex, cfg: PhysicalConfig,
                           z_steps: int = 1024) -> complex:
    """Numerical solve of the first-order two-region boundary problem.

    Deliberately avoids the closed-form route: the interior forcing is
    integrated by composite-Simpson variation of parameters, and the four
    boundary/interface constants come from a 4x4 linear solve.  Used to
    validate the closed forms; accuracy degrades for strongly evanescent
    modes where sinh-scale cancellation amplifies quadrature error, so
    verification draws keep |gamma_n| * a moderate.
    """
    if z_steps < 64:
        raise ValueError("z_steps >= 64 required")
    if z_steps % 2:
        z_steps += 1  # Simpson needs an even interval count
    s = mode_scalars(n, cfg)
    s0 = mode_scalars(ZERO, cfg)
    alpha_sq = alpha_grid(n[0], n[1], cfg)[2]
    a = cfg.a
    z0 = solve_zeroth(cfg)
    gam, gam0 = s.gamma, s0.gamma

    # interior forcing v(z) produced by the surface perturbation acting on
    # the flat-surface field below the slab
    z = np.linspace(0.0, a, z_steps + 1)
    v = (2j / a) * z0.C * gam0 * (
        2 * gam0 * np.sin(gam0 * z) - alpha_sq * (a - z) * np.cos(gam0 * z)) * g_n

    # particular solution w(z) = gamma^{-1} int_0^z sin(gamma (z - t)) v(t) dt
    # with w(0) = w'(0) = 0; only its interface trace enters the solve
    wgt = np.ones(z_steps + 1)
    wgt[1:-1:2], wgt[2:-1:2] = 4.0, 2.0
    wgt *= (a / z_steps) / 3.0
    w_a = np.sum(wgt * np.sin(gam * (a - z)) * v) / gam
    dw_a = np.sum(wgt * np.cos(gam * (a - z)) * v)

    # homogeneous corrections fixed by the four conditions; note the
    # interface jump is driven by the *zero-mode* slab-side derivative
    du0_plus = complex(eval_dz(z0, cfg, a, side="slab"))
    M = transfer_matrix(n, cfg)
    rhs = np.array([
        0.0,
        w_a,
        dw_a + du0_plus * g_n / (cfg.rho * a),
        0.0,
    ], dtype=complex)
    A, B, _, _ = np.linalg.solve(M, rhs)
    # w only lives below the slab; the top value is the slab branch alone
    return A * cmath.exp(1j * s.eta * cfg.b) + B * cmath.exp(-1j * s.eta * cfg.b)


def zeroth_residuals(cfg: PhysicalConfig) -> dict[str, float]:
    """Substitute the flat-surface closed form back into its defining
    conditions and report each absolute residual.

    The two Helmholtz residuals are identically zero for pure exponentials,
    but are still evaluated (at interior points) to catch branch mistakes.
    """
    z0 = solve_zeroth(cfg)
    D = -z0.C  # the below-slab coefficient of e^{-i gamma z}
    s0 = mode_scalars(ZERO, cfg)
    tau = tau_of(cfg)
    a, b = cfg.a, cfg.b
    g, e = s0.gamma, s0.eta

    u_b = z0.A * cmath.exp(1j * e * b) + z0.B * cmath.exp(-1j * e * b)
    du_b = 1j * e * (z0.A * cmath.exp(1j * e * b) - z0.B * cmath.exp(-1j * e * b))
    robin = abs(du_b / cfg.rho - (1j * g * u_b + tau))

    u_a_slab = z0.A * cmath.exp(1j * e * a) + z0.B * cmath.exp(-1j * e * a)
    u_a_below = complex(eval_field(z0, cfg, a * (1 - 1e-16)))
    continuity = abs(u_a_slab - u_a_below)

    du_a_slab = complex(eval_dz(z0, cfg, a, side="slab"))
    du_a_below = complex(eval_dz(z0, cfg, a, side="below"))
    flux = abs(du_a_slab / cfg.rho - du_a_below)

    dirichlet = abs(z0.C + D)

    # Helmholtz residuals at midpoints: curvature taken analytically from
    # the stored coefficients, value from eval_field() — zero only when the
    # two code paths agree on the branch representation
    zm_b, zm_s = 0.5 * a, 0.5 * (a + b)
    d2_below = -g * g * (z0.C * cmath.exp(1j * g * zm_b) +
                         D * cmath.exp(-1j * g * zm_b))
    helm_below = abs(d2_below + g * g * complex(eval_field(z0, cfg, zm_b)))
    d2_slab = -e * e * (z0.A * cmath.exp(1j * e * zm_s) +
                        z0.B * cmath.exp(-1j * e * zm_s))
    helm_slab = abs(d2_slab + e * e * complex(eval_field(z0, cfg, zm_s)))

    return {
        "robin_top": robin,
        "continuity": continuity,
        "flux_jump": flux,
        "dirichlet": dirichlet,
        "helmholtz_below": helm_below,
        "helmholtz_slab": helm_slab,
    }


def trig_profile_spectrum() -> SpectrumField:
    """Analytic coefficients of profile 1 (window N=3).

    From sin = (e^{i.} - e^{-i.})/2i and cos = (e^{i.} + e^{-i.})/2:
    p_0 = 1/8, p_1 = p_3 = -i/8, p_2 = 1/8, p_{-k} = conj(p_k); the
    separable sum g = p(x) + p(y) has no cross modes.
    """
    c = np.zeros((7, 7), dtype=complex)
    pk = {0: 0.125, 1: -0.125j, 2: 0.125, 3: -0.125j}
    for k, v in pk.items():
        for s in ({1, -1} if k else {1}):
            c[3 + s * k, 3] += v if s == 1 else np.conj(v)
            c[3, 3 + s * k] += v if s == 1 else np.conj(v)
    return SpectrumField(c, 3, 3)


def fourier_series(spectrum: SpectrumField, x, y):
    """(g, g_x, g_y, Laplacian g) of the real series sum_n c_n
    e^{2 pi i n.(x, y)}, summed pointwise at the broadcast points (x, y):
    one table of exponentials per axis and one einsum per output, where
    the package transforms the spectrum onto a cell grid."""
    C = spectrum.values
    a1 = 2.0 * np.pi * np.arange(-spectrum.W1, spectrum.W1 + 1)
    a2 = 2.0 * np.pi * np.arange(-spectrum.W2, spectrum.W2 + 1)
    T1 = np.exp(1j * np.asarray(x, dtype=float)[..., None] * a1)
    T2 = np.exp(1j * np.asarray(y, dtype=float)[..., None] * a2)

    def total(c):
        return np.real(np.einsum("...k,...l,kl->...", T1, T2, c))

    return (total(C), total(1j * a1[:, None] * C), total(1j * a2[None, :] * C),
            total(-(a1[:, None] ** 2 + a2[None, :] ** 2) * C))


def series_profile(spectrum: SpectrumField) -> SurfaceProfile:
    """The analytic profile that sums a spectrum's series pointwise."""
    return SurfaceProfile(
        sample=lambda x, y: fourier_series(spectrum, x, y)[0],
        derivatives=lambda x, y: fourier_series(spectrum, x, y)[1:])


def synthesize_real_irfft(coeffs: SpectrumField, N: int,
                          grid_shape: tuple[int, int]) -> np.ndarray:
    """Re(sum_{max(|n1|,|n2|) <= N} c_n e_n) on the grid with the last
    axis as I1 real-output inverse FFTs of length I2 over the Hermitian
    part's columns n2 >= 0, where ``synthesize`` takes one matrix product."""
    I1, I2 = grid_shape
    block = coeffs.values[coeffs.W1 - N:coeffs.W1 + N + 1,
                          coeffs.W2 - N:coeffs.W2 + N + 1]
    block = 0.5 * (block[:, N:] + block[::-1, N::-1].conj())
    rows = np.zeros((I1, N + 1), dtype=complex)
    rows[np.arange(-N, N + 1) % I1] = block
    cols = np.fft.ifft(rows, axis=0, norm="forward")
    return np.fft.irfft(cols, n=I2, axis=1, norm="forward")


def synthesize_linear_data(profile: SurfaceProfile, cfg: PhysicalConfig,
                           N_max: int = 12, quad_I: int = 99) -> SpectrumField:
    """Top-plane coefficients with the second-order remainder dropped:
    u_n(b) = u0(b) [n=0] + eps * u1_n(b).

    Inverse-crime data for round-trip tests — the linearized reconstruction
    inverts it exactly; real data come from solve_forward.
    """
    g_spec = profile_spectrum(profile, N_max, quad_I=quad_I)
    vals = np.zeros_like(g_spec.values)
    W = g_spec.W1
    for i1 in range(vals.shape[0]):
        for i2 in range(vals.shape[1]):
            n = (i1 - W, i2 - W)
            vals[i1, i2] = cfg.epsilon * first_order_top(n, g_spec.values[i1, i2], cfg)
    vals[W, W] += u0_top(cfg)
    return SpectrumField(vals, W, W)


def residual_curve_masked_sums(U_delta: SpectrumField, cfg: PhysicalConfig,
                               N_window: int) -> list[float]:
    """Discrepancy residuals ||R^{delta,N}|| for N = 0..N_window, each tail
    summed afresh over the modes with ||n||_inf > N."""
    d = U_delta.values.copy()
    d[U_delta.W1, U_delta.W2] -= u0_top(cfg)
    ring = U_delta.ring()
    sq = np.abs(d) ** 2
    values = []
    for N in range(N_window + 1):
        tail = float(np.sum(sq[ring > N]))
        values.append(float(np.sqrt(max(tail, 0.0))))
    return values


def _convolution(fields: np.ndarray, N: int) -> np.ndarray:
    """(..., K^2, K^2) matrices of multiplication by the (..., P, P) fields,
    P = 4N + 1, on the modes ||n||_inf <= N in the operator's order: entry
    (n, m) is the field's DFT coefficient at n - m, summed as an explicit
    DFT.  The differences n - m run over -2N..2N, one period of P."""
    P, K = fields.shape[-1], 2 * N + 1
    W = np.exp(-2j * np.pi * np.outer(np.arange(-2 * N, 2 * N + 1),
                                      np.arange(P)) / P) / P
    hat = W @ fields @ W.T
    d = np.arange(K)[:, None] - np.arange(K)[None, :] + 2 * N
    conv = hat[..., d[:, None, :, None], d[None, :, None, :]]
    return conv.reshape(fields.shape[:-2] + (K * K, K * K))


def _level_blocks(op):
    """Row block j of the collocation matrix, level by level, as lateral
    (K^2, K^2) matrices (L, A1, A2): row block j is L (x) e_j + A1 (x) Dz[j]
    + A2 (x) Dzz[j], for e_j the j-th unit row.  The transformed equation
    c1 lat + c2 d_zz - c3 i alpha_1 d_z - c4 i alpha_2 d_z - c5 d_z on the
    interior levels, term by term; the Dirichlet identity on level 0; and
    d_z minus (1 - f/a)/rho times Z on level M.  c2..c5 are rebuilt on each
    level as P x P fields from the z-profile and lateral fields they
    factor into, c2 = a^2 + az^2 g2, c3 = 2 az g3, c4 = 2 az g4 and
    c5 = az g5, and alpha comes from the mode grid."""
    K2, M, N, cf = op.K ** 2, op.M, op.N_f, op.cf
    ax, ay, _ = alpha_grid(*mode_grid(N), op.cfg)
    iax, iay = 1j * ax.reshape(-1), 1j * ay.reshape(-1)
    lat, Z = op.lat.reshape(-1), op.Z.reshape(-1)
    eye, zero = np.eye(K2), np.zeros((K2, K2))
    yield eye, zero, zero
    c1_lat = _convolution(cf.c1, N) * lat
    for j in range(1, M):
        az = cf.az[j]
        c2, c3 = op.cfg.a ** 2 + az**2 * cf.g2, 2 * az * cf.g3
        c4, c5 = 2 * az * cf.g4, az * cf.g5
        first = (_convolution(c3, N) * iax
                 + _convolution(c4, N) * iay + _convolution(c5, N))
        yield c1_lat, -first, _convolution(c2, N)
    yield -_convolution(cf.one_minus_f_over_a / op.cfg.rho, N) * Z, eye, zero


def dense_operator(op) -> np.ndarray:
    """The collocation system on all M+1 levels, the Dirichlet row on level
    0 included, as a dense K^2(M+1)-square matrix, assembled from the
    convolution matrices of the coefficient fields, the z-derivative
    matrices, lat, i alpha and Z, term by term; rows and columns in the
    (j, i1, i2) order.  forward._Operator is its level-1..M block."""
    K2, M = op.K ** 2, op.M
    A = np.zeros((M + 1, K2, M + 1, K2), dtype=complex)
    for j, (L, A1, A2) in enumerate(_level_blocks(op)):
        A[j] = (A1[:, None] * op.Dz[j, :, None]
                + A2[:, None] * op.Dzz[j, :, None])
        A[j, :, j] += L
    n = (M + 1) * K2
    return A.reshape(n, n)


def dense_rhs(op) -> np.ndarray:
    """The right-hand side on levels 1..M, zero on the interior rows, as a
    dense vector: on level M the forcing (1 - f/a) zeta_0 / rho, its P x P
    field shifted by e^{iN_f(x+y)} and transformed whole along both axes,
    its corner [:K, :K] holding the modes of the solver window."""
    K, P, N = op.K, op.P, op.N_f
    shift = np.exp(2j * np.pi * (N * np.arange(P) % P) / P)
    field = op.cf.one_minus_f_over_a * np.multiply.outer(shift, shift)
    spectrum = np.fft.fft(np.fft.fft(field, axis=0, norm="forward"), axis=1,
                          norm="forward")
    r = np.zeros((op.M, K, K), dtype=complex)
    r[-1] = op.zeta[N, N] / op.cfg.rho * spectrum[:K, :K]
    return r.reshape(-1)


def dense_matvec(op, x: np.ndarray) -> np.ndarray:
    """dense_operator(op) @ x for each vector x[..., :] on all M+1 levels,
    one level's row block at a time, for grids whose full matrix would not
    fit in memory."""
    K2, M = op.K ** 2, op.M
    X = x.reshape(-1, M + 1, K2)  # (vectors, M+1, K^2)
    out = np.empty_like(X)
    for j, (L, A1, A2) in enumerate(_level_blocks(op)):
        out[:, j] = (X[:, j] @ L.T + np.tensordot(X, op.Dz[j], (1, 0)) @ A1.T
                     + np.tensordot(X, op.Dzz[j], (1, 0)) @ A2.T)
    return out.reshape(x.shape)


def _band_rows(D: np.ndarray, p: int) -> np.ndarray:
    """(n, 2p+1) array whose row i holds D[i, i-p..i+p], zero outside D."""
    n = len(D)
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(D, ((0, 0), (p, p))), 2 * p + 1, axis=1)
    return windows[np.arange(n), np.arange(n)]


class BandLU:
    """The mean-coefficient LU of forward._BandedLU in full band storage,
    the reference its envelope storage must reproduce bit for bit.

    All B blocks A_k = shared + diag(d_k) are factored at once, without
    pivoting: ab[i, p + j - i, k] holds entry (i, j) of block k, for
    half-bandwidth p.  Elimination keeps the band, so L (unit, below) and
    U (above) overwrite it, and the diagonal ends up holding 1/pivot.  Each
    step of the factorization and of both substitutions is one level i,
    vectorized over the blocks.  A pivot below 1e-12 times the largest
    entry of its row in A_k raises NearSingularSystem.
    """

    def __init__(self, shared: np.ndarray, diag: np.ndarray):
        n, B = diag.shape
        i, j = np.nonzero(shared)
        p = int(np.max(np.abs(i - j)))
        ab = np.zeros((n + p, 2 * p + 1, B), dtype=complex)
        ab[:n] = _band_rows(shared, p)[:, :, None]
        ab[:n, p] += diag
        row_max = np.max(np.abs(ab[:n]), axis=1)

        # skewed views over the band: for pivot row j, lower[j, s - 1] is
        # entry (j + s, j) and upper[j, s - 1] the entries (j + s, j + 1..j + p)
        # of rows s = 1..p below it; the p zero pad rows absorb the overhang
        # past row n - 1, so the steps near the end need no special case
        it, R, C = ab.strides[2], ab.strides[0], ab.strides[1]
        skew = np.lib.stride_tricks.as_strided
        lower = skew(ab[1:, p - 1], (n, p, B), (R, R - C, it))
        upper = skew(ab[1:, p:], (n, p, p, B), (R, R - C, C, it))
        for j in range(n):
            pivot = ab[j, p]
            small = ~(np.abs(pivot) > 1e-12 * row_max[j])
            if small.any():
                k = int(np.argmax(small))
                raise NearSingularSystem(
                    f"mean-coefficient preconditioner: pivot {j} of block "
                    f"{k} vanishes")
            lj = lower[j]
            lj /= pivot
            upper[j] -= lj[:, None, :] * ab[j, p + 1:]
        self.n, self.p, self.B = n, p, B
        self.ab = ab[:n]
        np.divide(1, ab[:n, p], out=ab[:n, p])

    def solve(self, b: np.ndarray) -> np.ndarray:
        n, p, ab = self.n, self.p, self.ab
        # level i of the level-major solution sits at row p + i, between
        # p zero rows on either side
        y = np.zeros((n + 2 * p, self.B), dtype=complex)
        y[p:n + p] = b.reshape(n, self.B)
        for i in range(1, n):
            y[p + i] -= np.einsum("sk,sk->k", ab[i, :p], y[i:p + i])
        for i in range(n - 1, -1, -1):
            y[p + i] -= np.einsum("sk,sk->k", ab[i, p + 1:],
                                  y[p + i + 1:2 * p + i + 1])
            y[p + i] *= ab[i, p]
        return y[p:n + p].reshape(-1)


def gmres_block(matvec, psolve, b: np.ndarray, rtol: float, iter_max: int):
    """forward._gmres with its Krylov basis in one (restart + 1, n) block,
    the reference the vectors it allocates as reached must reproduce bit for
    bit, and its solution update one einsum over that block.

    Left-preconditioned restarted GMRES (Saad & Schultz 1986) from x = 0,
    step for step as scipy.sparse.linalg.gmres (scipy 1.17) runs it with
    atol=0, restart=min(_RESTART, iter_max) (forward._RESTART is 22) and
    ceil(iter_max / restart) cycles: modified Gram-Schmidt, zlartg's Givens
    rotations, and the inner tolerance control of scipy gh-8400.

    matvec(v, out=buf) puts A v in buf, and psolve(v, out=row) puts the
    preconditioned v in a Krylov row, so an iteration allocates no vector.
    Returns (x, inner iterations, ||b - A x||), the iterations counted as
    scipy's `pr_norm` callback counts them and the residual norm as the last
    cycle computed it.  Stops after the cycle in which ||b - A x|| <= rtol
    ||b||, on breakdown, or when the cycles run out; the caller checks the
    residual.  Besides x and b it holds the restart + 1 Krylov vectors (23 of
    640 KB, 14.7 MB, at full resolution, the largest array of a solve) and
    one scratch vector.
    """
    n = b.size
    x = np.zeros(n, dtype=complex)
    bnrm2 = _norm(b)
    if bnrm2 == 0:
        return x, 0, 0.0
    atol = rtol * bnrm2
    eps = np.finfo(complex).eps
    restart = min(_RESTART, iter_max)
    cycles = -(-iter_max // restart)

    # gh-8400: the inner loop stops on the preconditioned residual, ptol
    ptol_max_factor = 1.0
    ptol = _norm(psolve(b)) * min(ptol_max_factor, atol / bnrm2)
    presid = 0.0
    # v: Krylov basis; h[col]: Hessenberg column col, rotated in place
    v = np.empty((restart + 1, n), dtype=complex)
    h = np.zeros((restart, restart + 1), dtype=complex)
    givens = np.zeros((restart, 2), dtype=complex)
    # the matvec, Gram-Schmidt and x-update temporary, and the residual
    # b - A x from a cycle's end until the next cycle's psolve reads it
    scratch = np.empty(n, dtype=complex)
    iterations = 0
    r = b
    for _ in range(cycles):
        psolve(r, out=v[0])
        tmp = _norm(v[0])
        v[0] *= 1 / tmp
        S = np.zeros(restart + 1, dtype=complex)
        S[0] = tmp

        breakdown = False
        for col in range(restart):
            w = psolve(matvec(v[col], out=scratch), out=v[col + 1])
            h0 = _norm(w)
            for k in range(col + 1):
                tmp = np.einsum("i,i->", np.conjugate(v[k], out=scratch), w)
                h[col, k] = tmp
                w -= np.multiply(tmp, v[k], out=scratch)
            h1 = _norm(w)
            h[col, col + 1] = h1
            if h1 <= eps * h0:  # the Krylov space is invariant
                h[col, col + 1] = 0
                breakdown = True
            else:
                w *= 1 / h1

            for k in range(col):
                c, s = givens[k]
                n0, n1 = h[col, k], h[col, k + 1]
                h[col, k] = c * n0 + s * n1
                h[col, k + 1] = -s.conj() * n0 + c * n1
            c, s, mag = _givens(complex(h[col, col]),
                                complex(h[col, col + 1]))
            givens[col] = c, s
            h[col, col], h[col, col + 1] = mag, 0
            tmp = -np.conjugate(s) * S[col]
            S[col], S[col + 1] = c * S[col], tmp
            presid = np.abs(tmp)
            iterations += 1
            if presid <= ptol or breakdown:
                break

        # back-substitute the triangular system, tolerating a zero pivot
        if h[col, col] == 0:
            S[col] = 0
        y = S[:col + 1].copy()
        for k in range(col, 0, -1):
            if y[k] != 0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[k, :k]
        if y[0] != 0:
            y[0] /= h[0, 0]
        x += np.einsum("k,kn->n", y, v[:col + 1], out=scratch)

        r = np.subtract(b, matvec(x, out=scratch), out=scratch)
        rnorm = _norm(r)
        if rnorm <= atol or breakdown:
            break
        if presid <= ptol:
            ptol_max_factor = max(eps, 0.25 * ptol_max_factor)
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / rnorm)
    return x, iterations, rnorm


def solve_interior(profile: SurfaceProfile, cfg: PhysicalConfig,
                   disc: Discretization) -> np.ndarray:
    """The mode coefficients (M, K, K) of the solved field on the flattened
    levels 1..M, level by level, from the operator and GMRES exactly as
    forward.solve_forward runs them before it keeps the top plane."""
    op = _Operator(cfg, disc, coefficient_fields(profile, cfg, disc))
    x, _, _ = _gmres(op.apply, op.preconditioner(), op.rhs(), op.dim,
                     op.work, 0.05 * disc.iter_tol, disc.iter_max)
    return x.reshape(disc.M, op.K, op.K)
