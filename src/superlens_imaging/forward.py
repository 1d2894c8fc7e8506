"""Full (non-linearized) forward solver on the flattened domain.

The change of variables that maps the region between the rough surface and
the slab bottom onto the strip 0 < z < a turns the Helmholtz equation into
a variable-coefficient equation with five coefficient fields c1..c5 built
from the surface f and its first two derivatives.  The slab and the
radiation condition above it are eliminated analytically into a per-mode
impedance relation at z = a, so the discrete unknowns live only below the
slab: Fourier collocation laterally (modes ||n||_inf <= N_f), finite
differences of order fd_order in z on M intervals.

Coefficient products are applied pointwise on an internal lateral grid of
P = 4*N_f + 1 points per period, which is wide enough that no aliased
frequency wraps back into the solver window as long as f is band-limited
to N_f; smooth non-band-limited profiles incur only their (spectrally
small) sampling tails.  Profiles without analytic derivatives (image
indicators) are replaced by their truncated Fourier series at the solver
cut-off — the solver, like the inverse problem, only ever sees the
band-limited surface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, gmres, splu

from .core import (PhysicalConfig, alpha_grid, gamma_eta_grid, mode_grid,
                   tau_of)
from .errors import (DegenerateSlab, NoConvergence, NyquistViolation,
                     ProfileTooTall, ResonantMode)
from .profiles import SurfaceProfile, band_limited_profile
from .spectral import SpectrumField, synthesize


@dataclass(frozen=True)
class Discretization:
    I: int = 99
    N_f: int = 12
    M: int = 64
    fd_order: int = 4
    solver: str = "preconditioned-iterative"
    iter_tol: float = 1e-10
    iter_max: int = 200

    def __post_init__(self):
        if self.N_f < 1:
            raise ValueError("N_f >= 1 required")
        if self.I <= 2 * self.N_f:
            raise NyquistViolation(
                f"I={self.I} must exceed 2*N_f={2 * self.N_f} to resolve the window")
        if self.M < 8:
            raise ValueError("M >= 8 required")
        if self.fd_order not in (2, 4):
            raise ValueError("fd_order must be 2 or 4")
        if self.solver != "preconditioned-iterative":
            raise ValueError("solver must be 'preconditioned-iterative'")
        if not (0 < self.iter_tol <= 1e-4):
            raise ValueError("iter_tol must lie in (0, 1e-4]")
        if self.iter_max < 1:
            raise ValueError("iter_max >= 1 required")

    @property
    def P(self) -> int:
        """Lateral points of the internal product grid (alias-free for
        surfaces band-limited to N_f)."""
        return 4 * self.N_f + 1

    @property
    def K(self) -> int:
        """Modes per lateral axis."""
        return 2 * self.N_f + 1


# --- finite differences ------------------------------------------------------

def fd_weights(x: np.ndarray, x0: float, m: int) -> np.ndarray:
    """Fornberg weights: column k holds the weights of the k-th derivative
    at x0 on the (arbitrary) nodes x."""
    n = len(x)
    c = np.zeros((n, m + 1))
    c1, c4 = 1.0, x[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2, c5, c4 = 1.0, c4, x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


def deriv_matrix(M: int, h: float, d: int, p: int) -> np.ndarray:
    """(M+1)x(M+1) matrix of the d-th z-derivative at order >= p on the
    uniform levels z_j = j*h; rows near the ends switch to off-centered
    stencils of the same order."""
    z = np.arange(M + 1) * h
    r = p // 2
    n_edge = p + d
    D = np.zeros((M + 1, M + 1))
    for j in range(M + 1):
        if j - r >= 0 and j + r <= M:
            lo, hi = j - r, j + r
        elif j < r:
            lo, hi = 0, min(M, n_edge - 1)
        else:
            lo, hi = max(0, M - n_edge + 1), M
        w = fd_weights(z[lo:hi + 1], z[j], d)
        D[j, lo:hi + 1] = w[:, d]
    return D


# --- coefficient fields ------------------------------------------------------

@dataclass(frozen=True)
class CoefficientFields:
    """The five flattening coefficients on the solver tensor grid.

    c1 is z-independent and strictly positive (the transform requires
    f < a); c2..c5 are stored as full (M+1, P, P) blocks with z varying
    along the first axis.  one_minus_f_over_a feeds the interface row.
    """
    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    c4: np.ndarray
    c5: np.ndarray
    one_minus_f_over_a: np.ndarray


def _surface_fields(profile: SurfaceProfile, cfg: PhysicalConfig,
                    disc: Discretization):
    """f, f_x, f_y, Laplacian f on the P x P product grid (eps included).

    A profile without analytic derivatives is replaced by its truncated
    Fourier series at the solver cut-off, as effective_profile does.
    """
    if not profile.has_derivatives:
        profile = band_limited_profile(profile, disc.N_f, quad_I=disc.P)
    P = disc.P
    xs = np.arange(P) / P * cfg.period1
    ys = np.arange(P) / P * cfg.period2
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    g = profile.sample(X, Y)
    gx, gy = profile.grad(X, Y)
    glap = profile.laplacian(X, Y)
    e = cfg.epsilon
    return e * g, e * gx, e * gy, e * glap


def coefficient_fields(profile: SurfaceProfile, cfg: PhysicalConfig,
                       disc: Discretization) -> CoefficientFields:
    f, fx, fy, flap = _surface_fields(profile, cfg, disc)
    a = cfg.a
    if np.max(np.abs(f)) >= a:
        raise ProfileTooTall(
            f"surface amplitude {np.max(np.abs(f)):.3g} reaches the slab at a={a}")
    zs = np.arange(disc.M + 1) * (a / disc.M)
    az = (a - zs)[:, None, None]
    gradsq = fx**2 + fy**2
    c1 = (a - f) ** 2
    c2 = a**2 + az**2 * gradsq[None, :, :]
    c3 = 2 * az * ((a - f) * fx)[None, :, :]
    c4 = 2 * az * ((a - f) * fy)[None, :, :]
    c5 = az * (2 * gradsq + (a - f) * flap)[None, :, :]
    return CoefficientFields(c1=c1, c2=c2, c3=c3, c4=c4, c5=c5,
                             one_minus_f_over_a=1.0 - f / a)


# --- slab elimination --------------------------------------------------------

def _impedance(n1, n2, cfg: PhysicalConfig):
    """Affine relation d/dz u_n(a+) = Z_n u_n(a) + zeta_n over index arrays,
    obtained by eliminating the slab amplitudes against the top radiation
    row; returns (Z_n, zeta_n, eta_n).

    zeta_n carries the incident forcing, hence vanishes off n = 0.  Raises
    on the first resonant or degenerate mode.
    """
    gam, eta, resonant = gamma_eta_grid(n1, n2, cfg)

    def first(mask):
        k = np.flatnonzero(mask)[0]
        return int(np.ravel(n1)[k]), int(np.ravel(n2)[k])

    if resonant.any():
        raise ResonantMode(f"resonant mode {first(resonant)} in solver window")
    phi = eta / cfg.rho + gam
    psi = eta / cfg.rho - gam
    ep, em = np.exp(1j * eta * cfg.h), np.exp(-1j * eta * cfg.h)
    t1, t2 = psi * ep, phi * em
    den = t1 + t2
    scale = np.maximum(np.abs(t1) + np.abs(t2), 1e-300)
    degenerate = np.abs(den) < 1e-12 * scale
    if degenerate.any():
        raise DegenerateSlab(
            f"slab elimination denominator cancels at mode {first(degenerate)}")
    Z = 1j * eta * (phi * em - psi * ep) / den
    zeta = np.where((n1 == 0) & (n2 == 0), 2 * eta * tau_of(cfg) / den, 0j)
    return Z, zeta, eta


# --- the discrete operator ---------------------------------------------------

class _Operator:
    """Matrix-free application of the collocation system.

    State layout: complex (K, K, M+1), C-order flattened; index [i1, i2, j]
    is mode (i1 - N_f, i2 - N_f) at level z_j.  Row j=0 is the Dirichlet
    identity, rows 1..M-1 the transformed PDE, row M the impedance
    interface condition.
    """

    def __init__(self, cfg: PhysicalConfig, disc: Discretization,
                 cf: CoefficientFields):
        K, P, M = disc.K, disc.P, disc.M
        self.K, self.P, self.M = K, P, M
        self.N_f = disc.N_f
        self.cfg = cfg
        self.cf = cf
        self.dim = K * K * (M + 1)

        n1g, n2g = mode_grid(disc.N_f)
        self.ax, self.ay, asq = alpha_grid(n1g, n2g, cfg)
        self.lat = cfg.omega**2 - asq  # (omega^2 - |alpha|^2) per mode

        hz = cfg.a / M
        self.Dz = sp.csr_matrix(deriv_matrix(M, hz, 1, disc.fd_order))
        self.Dzz = sp.csr_matrix(deriv_matrix(M, hz, 2, disc.fd_order))

        self.Z, self.zeta, self.eta_w = _impedance(n1g, n2g, cfg)

    # spectral (..., K, K) <-> physical (..., P, P).  Only K of the P rows
    # and columns of the padded spectrum are non-zero (modes 0..N_f at the
    # front, -N_f..-1 wrapped to the back), so each direction transforms
    # one axis on the K live rows and the other on all P.
    def _to_phys(self, C: np.ndarray) -> np.ndarray:
        N, P = self.N_f, self.P
        rows = np.zeros(C.shape[:-1] + (P,), dtype=complex)
        rows[..., :N + 1] = C[..., N:]
        rows[..., P - N:] = C[..., :N]
        rows = sfft.ifft(rows, axis=-1, norm="forward", overwrite_x=True)
        full = np.zeros(C.shape[:-2] + (P, P), dtype=complex)
        full[..., :N + 1, :] = rows[..., N:, :]
        full[..., P - N:, :] = rows[..., :N, :]
        return sfft.ifft(full, axis=-2, norm="forward", overwrite_x=True)

    def _to_spec(self, U: np.ndarray) -> np.ndarray:
        N = self.N_f
        F = sfft.fft(U, axis=-2, norm="forward")
        cols = np.concatenate([F[..., -N:, :], F[..., :N + 1, :]], axis=-2)
        F = sfft.fft(cols, axis=-1, norm="forward", overwrite_x=True)
        return np.concatenate([F[..., -N:], F[..., :N + 1]], axis=-1)

    def _dz_apply(self, D: sp.csr_matrix, S: np.ndarray) -> np.ndarray:
        K, M1 = self.K, self.M + 1
        flat = S.reshape(K * K, M1)
        return (D @ flat.T).T.reshape(K, K, M1)

    def apply(self, x: np.ndarray) -> np.ndarray:
        K, M, P = self.K, self.M, self.P
        S = x.reshape(K, K, M + 1)
        SZ = self._dz_apply(self.Dz, S)
        SZZ = self._dz_apply(self.Dzz, S)

        # one batched lateral transform: the five PDE terms on the interior
        # levels 1..M-1 (z leading), then the impedance trace at level M
        def lead(A):
            return np.moveaxis(A[:, :, 1:M], -1, 0)

        spec = np.empty((5 * (M - 1) + 1, K, K), dtype=complex)
        terms = spec[:-1].reshape(5, M - 1, K, K)
        sz = lead(SZ)
        terms[0] = self.lat * lead(S)
        terms[1] = lead(SZZ)
        terms[2] = 1j * self.ax * sz
        terms[3] = 1j * self.ay * sz
        terms[4] = sz
        spec[-1] = self.Z * S[:, :, M]
        phys = self._to_phys(spec)
        lat_p, szz_p, sxz_p, syz_p, sz_p = phys[:-1].reshape(5, M - 1, P, P)

        cf = self.cf
        inner = slice(1, M)
        prod = np.empty((M, P, P), dtype=complex)
        prod[:-1] = (cf.c1 * lat_p + cf.c2[inner] * szz_p
                     - cf.c3[inner] * sxz_p - cf.c4[inner] * syz_p
                     - cf.c5[inner] * sz_p)
        # the slab impedance seen through (1 - f/a)
        prod[-1] = (cf.one_minus_f_over_a / self.cfg.rho) * phys[-1]
        back = self._to_spec(prod)

        out = np.empty((K, K, M + 1), dtype=complex)
        # row 0: Dirichlet on the flattened surface
        out[:, :, 0] = S[:, :, 0]
        out[:, :, 1:M] = np.moveaxis(back[:-1], 0, -1)
        # row M: one-sided dz minus the impedance term
        out[:, :, M] = SZ[:, :, M] - back[-1]
        return out.reshape(-1)

    def rhs(self) -> np.ndarray:
        r = np.zeros((self.K, self.K, self.M + 1), dtype=complex)
        zeta0 = self.zeta[self.N_f, self.N_f]
        r[:, :, self.M] = (zeta0 / self.cfg.rho) * self._to_spec(
            self.cf.one_minus_f_over_a.astype(complex))
        return r.reshape(-1)

    def preconditioner(self) -> LinearOperator:
        """Exact inverse of the flat-surface (f=0) operator.

        That operator is mode-diagonal: one banded (M+1)x(M+1) block per
        lateral mode, sharing the FD rows and differing only by the
        a^2 * (omega^2 - |alpha|^2) diagonal on the interior rows and -Z/rho
        at row M.  The block-diagonal matrix is factored once by a sparse
        LU in natural order; the blocks have half-bandwidth <= 5, so the
        factors stay banded.
        """
        K, M = self.K, self.M
        a2 = self.cfg.a ** 2
        e0 = sp.csr_matrix(([1.0], ([0], [0])), shape=(1, M + 1))
        shared = sp.vstack([e0, a2 * self.Dzz[1:M], self.Dz[M]])
        diag = np.zeros((K, K, M + 1), dtype=complex)
        diag[:, :, 1:M] = a2 * self.lat[:, :, None]
        diag[:, :, M] = -self.Z / self.cfg.rho
        A0 = sp.kron(sp.identity(K * K), shared) + sp.diags(diag.reshape(-1))
        lu = splu(A0.tocsc(), permc_spec="NATURAL")
        return LinearOperator((self.dim, self.dim), matvec=lu.solve,
                              dtype=complex)


# --- solution container ------------------------------------------------------

@dataclass(frozen=True)
class ForwardSolution:
    """spectral_interior: mode coefficients (K, K, M+1) of the field on the
    flattened levels; top: coefficients u_n(b) on the solver window;
    top_grid: u(x_i, b) on the I x I grid."""
    spectral_interior: np.ndarray
    top: SpectrumField
    top_grid: np.ndarray
    iterations: int
    residual: float


def _back_substitute(op: _Operator, S: np.ndarray, cfg: PhysicalConfig,
                     disc: Discretization) -> SpectrumField:
    """Slab amplitudes from u_n(a), then u_n(b)."""
    ua = S[:, :, -1]
    s_plus = op.Z * ua + op.zeta
    eta = op.eta_w
    Pc = 0.5 * (ua + s_plus / (1j * eta))
    Qc = 0.5 * (ua - s_plus / (1j * eta))
    h = cfg.h
    top = Pc * np.exp(1j * eta * h) + Qc * np.exp(-1j * eta * h)
    return SpectrumField(top, disc.N_f, disc.N_f)


def solve_forward(profile: SurfaceProfile, cfg: PhysicalConfig,
                  disc: Discretization) -> ForwardSolution:
    """Solve the flattened scattering problem and evaluate the data plane.

    GMRES preconditioned by the exact flat-surface inverse; the reported
    residual is the true relative residual of the unpreconditioned system,
    re-checked after the solve.
    """
    cf = coefficient_fields(profile, cfg, disc)
    op = _Operator(cfg, disc, cf)
    b = op.rhs()
    b_norm = np.linalg.norm(b)
    A = LinearOperator((op.dim, op.dim), matvec=op.apply, dtype=complex)
    # held until the function returns: freeing the LU factors before the
    # residual check and back-substitution raised peak RSS by about 9 MB
    # over repeated full-resolution solves
    Minv = op.preconditioner()
    count = {"n": 0}

    def cb(_):
        count["n"] += 1

    restart = min(50, disc.iter_max)
    maxiter = max(1, -(-disc.iter_max // restart))
    x, _ = gmres(A, b, M=Minv, rtol=0.05 * disc.iter_tol, atol=0.0,
                 restart=restart, maxiter=maxiter,
                 callback=cb, callback_type="pr_norm")
    iterations = count["n"]

    res = float(np.linalg.norm(op.apply(x) - b) / b_norm)
    if res > disc.iter_tol:
        raise NoConvergence(
            f"relative residual {res:.3e} above tolerance {disc.iter_tol:.1e} "
            f"after {iterations} iterations")

    S = x.reshape(op.K, op.K, disc.M + 1)
    top = _back_substitute(op, S, cfg, disc)
    top_grid = synthesize(top, disc.N_f, (disc.I, disc.I))
    return ForwardSolution(spectral_interior=S, top=top,
                           top_grid=top_grid, iterations=iterations,
                           residual=res)


def reflected_flux(top: SpectrumField, cfg: PhysicalConfig) -> float:
    """Outgoing energy flux above the slab, normalized by the incident
    flux.  For lossless media this cannot exceed 1 beyond discretization
    error (the sound-soft bottom returns all energy)."""
    n1, n2 = top.mode_arrays()
    gam, _, _ = gamma_eta_grid(n1, n2, cfg)
    R = top.values.copy()
    R[top.W1, top.W2] -= np.exp(-1j * cfg.omega * cfg.b)
    propagating = np.abs(gam.imag) < 1e-12 * cfg.omega
    return float(np.sum((np.abs(R) ** 2 * gam.real / cfg.omega)[propagating]))
