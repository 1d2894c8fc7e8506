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

import math
from dataclasses import dataclass

import numpy as np

from .core import (PhysicalConfig, alpha_grid, cancelling_sum, gamma_eta_grid,
                   mode_grid, slab_terms, tau_of)
from .errors import (DegenerateSlab, NearSingularSystem, NoConvergence,
                     NyquistViolation, ProfileTooTall, ResonantMode)
from .profiles import SurfaceProfile, band_limited_profile, check_unit_cell
from .spectral import SpectrumField, synthesize


@dataclass(frozen=True)
class Discretization:
    I: int = 99
    N_f: int = 12
    M: int = 64
    fd_order: int = 4
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


def _band_rows(D: np.ndarray, p: int) -> np.ndarray:
    """(n, 2p+1) array whose row i holds D[i, i-p..i+p], zero outside D."""
    n = len(D)
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(D, ((0, 0), (p, p))), 2 * p + 1, axis=1)
    return windows[np.arange(n), np.arange(n)]


def _half_bandwidth(D: np.ndarray) -> int:
    i, j = np.nonzero(D)
    return int(np.max(np.abs(i - j)))


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
    check_unit_cell(cfg.period1, cfg.period2)
    if not profile.has_derivatives:
        profile = band_limited_profile(profile, disc.N_f, quad_I=disc.P)
    xs = np.arange(disc.P) / disc.P
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    g = profile.sample(X, Y)
    gx, gy, glap = profile.derivatives(X, Y)
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
    phi, psi, ep, em = slab_terms(gam, eta, cfg)
    den, degenerate = cancelling_sum(psi * ep, phi * em)
    if degenerate.any():
        raise DegenerateSlab(
            f"slab elimination denominator cancels at mode {first(degenerate)}")
    Z = 1j * eta * (phi * em - psi * ep) / den
    zeta = np.where((n1 == 0) & (n2 == 0), 2 * eta * tau_of(cfg) / den, 0j)
    return Z, zeta, eta


# --- the discrete operator ---------------------------------------------------

# interior z-levels per pass of the matvec pipeline.  At full resolution
# (P = 49) five terms of eight padded slices take 1.5 MB and stay in a 4 MB
# L2 cache between the stages; on a 2-vCPU VM with that cache, 6 and 10
# levels ran as fast, 16 or all 63 at once were slower.
_LEVEL_BLOCK = 8


class _Operator:
    """Matrix-free application of the collocation system.

    State layout: complex (K, K, M+1), C-order flattened; index [i1, i2, j]
    is mode (i1 - N_f, i2 - N_f) at level z_j.  Row j=0 is the Dirichlet
    identity, rows 1..M-1 the transformed PDE, row M the impedance
    interface condition.

    apply() takes each lateral spectrum to the field by an inverse transform
    of length P along both axes, with mode n at index n + N_f: the corner
    [:K, :K] of a P x P slice, the rest zero.  That gives the field times
    e^{iN_f(x+y)}; the coefficient products are pointwise, so the forward
    transform cancels the phase, and product modes wrap onto indices
    K..P-1, clear of the corner.  The interior levels go through the whole
    pipeline in blocks of at most _LEVEL_BLOCK: write the five PDE terms as
    (K, K) spectra, transform them into the padded workspace, take the
    coefficient products into the first term, transform it back and copy
    its corner into the output rows.  The workspace, (5, _LEVEL_BLOCK, P, P)
    complex (1.5 MB at full resolution), stays in cache across the stages;
    it and the block's spectra live as long as the operator, and the
    impedance trace reuses their first slices after the last block.  The
    z-derivatives work on a z-leading copy of the state, (M+1, K, K), kept
    beside them.  Each call returns a fresh vector, but the buffers are
    shared, so one operator must not run two apply() calls at once.
    """

    def __init__(self, cfg: PhysicalConfig, disc: Discretization,
                 cf: CoefficientFields):
        K, P, M, N = disc.K, disc.P, disc.M, disc.N_f
        self.K, self.P, self.M = K, P, M
        self.N_f = N
        self.cfg = cfg
        self.cf = cf
        self.dim = K * K * (M + 1)

        n1g, n2g = mode_grid(N)
        ax, ay, asq = alpha_grid(n1g, n2g, cfg)
        self.iax, self.iay = 1j * ax, 1j * ay
        self.lat = cfg.omega**2 - asq  # (omega^2 - |alpha|^2) per mode
        # the slab impedance seen through (1 - f/a)
        self.trace_coef = cf.one_minus_f_over_a / cfg.rho

        hz = cfg.a / M
        self.Dz = deriv_matrix(M, hz, 1, disc.fd_order)
        self.Dzz = deriv_matrix(M, hz, 2, disc.fd_order)

        self.Z, self.zeta, self.eta_w = _impedance(n1g, n2g, cfg)

        block = min(_LEVEL_BLOCK, M - 1)
        self._spec = np.empty((5, block, K, K), dtype=complex)
        self._ws = np.empty((5, block, P, P), dtype=complex)
        # the z-leading state between p zero levels on either side, its
        # float64 windows of 2p+1 levels, and the two z-derivatives
        p = max(_half_bandwidth(self.Dz), _half_bandwidth(self.Dzz))
        self._bands = np.stack([_band_rows(D, p) for D in (self.Dz, self.Dzz)])
        padded = np.zeros((M + 1 + 2 * p, K, K), dtype=complex)
        self._state = padded[p:M + 1 + p]
        self._windows = np.lib.stride_tricks.sliding_window_view(
            padded.reshape(M + 1 + 2 * p, -1).view(np.float64),
            2 * p + 1, axis=0)
        self._derivs = np.empty((2, M + 1, K, K), dtype=complex)

    # spectrum (..., K, K) <-> phase-shifted field (..., P, P).  The inverse
    # transform zero-pads the spectrum along the last axis as it writes the
    # first K rows of buf, and then runs over all P columns; the forward one
    # runs over all columns, then over the K rows the corner needs.
    def _to_field(self, spec: np.ndarray, buf: np.ndarray) -> None:
        K = self.K
        buf[..., K:, :] = 0
        np.fft.ifft(spec, n=self.P, axis=-1, norm="forward",
                    out=buf[..., :K, :])
        np.fft.ifft(buf, axis=-2, norm="forward", out=buf)

    def _to_corner(self, buf: np.ndarray) -> np.ndarray:
        np.fft.fft(buf, axis=-2, norm="forward", out=buf)
        live = buf[..., :self.K, :]
        np.fft.fft(live, axis=-1, norm="forward", out=live)
        return live[..., :self.K]

    def _z_derivatives(self, S: np.ndarray):
        """The state z-leading, (M+1, K, K), and its first and second
        z-derivatives, in the operator's buffers.

        Level i of a derivative is the sum over the band of D's row i times
        the state's levels i-p..i+p, taken in increasing level from zero, as
        a CSR product sums it; so the two agree bit for bit.  einsum without
        `optimize` runs the sum as scaled adds of whole levels and never
        calls BLAS.
        """
        np.copyto(self._state, np.moveaxis(S, -1, 0))
        np.einsum("dis,iks->dik", self._bands, self._windows,
                  out=self._derivs.reshape(2, self.M + 1, -1).view(np.float64))
        return self._state, self._derivs[0], self._derivs[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        K, M = self.K, self.M
        S = x.reshape(K, K, M + 1)
        T, SZ, SZZ = self._z_derivatives(S)
        out = np.empty((K, K, M + 1), dtype=complex)
        rows = np.moveaxis(out, -1, 0)
        # row 0: Dirichlet on the flattened surface
        rows[0] = T[0]

        # rows 1..M-1: c1 lat + c2 szz - c3 sxz - c4 syz - c5 sz, summed
        # left to right into the first term, one block of levels at a time
        cf, block = self.cf, len(self._ws[0])
        for j0 in range(1, M, block):
            j1 = min(j0 + block, M)
            spec, ws = self._spec[:, :j1 - j0], self._ws[:, :j1 - j0]
            s_z = SZ[j0:j1]
            np.multiply(self.lat, T[j0:j1], out=spec[0])
            spec[1] = SZZ[j0:j1]
            np.multiply(self.iax, s_z, out=spec[2])
            np.multiply(self.iay, s_z, out=spec[3])
            spec[4] = s_z
            self._to_field(spec, ws)
            lat, szz, sxz, syz, sz = ws
            np.multiply(cf.c1, lat, out=lat)
            for c, term, accumulate in ((cf.c2, szz, np.add),
                                        (cf.c3, sxz, np.subtract),
                                        (cf.c4, syz, np.subtract),
                                        (cf.c5, sz, np.subtract)):
                np.multiply(c[j0:j1], term, out=term)
                accumulate(lat, term, out=lat)
            rows[j0:j1] = self._to_corner(lat)

        # row M: one-sided dz minus the impedance term, in the first slices
        # of the blocks' buffers
        trace, field = self._spec[0, 0], self._ws[0, 0]
        np.multiply(self.Z, T[M], out=trace)
        self._to_field(trace, field)
        np.multiply(self.trace_coef, field, out=field)
        np.subtract(SZ[M], self._to_corner(field), out=rows[M])
        return out.reshape(-1)

    def rhs(self) -> np.ndarray:
        K, P, M = self.K, self.P, self.M
        # the forcing (1 - f/a) zeta_0 / rho on row M, its field shifted by
        # e^{iN_f(x+y)} so that its spectrum lands in the corner
        shift = np.exp(2j * np.pi * (self.N_f * np.arange(P) % P) / P)
        field = self.cf.one_minus_f_over_a * np.multiply.outer(shift, shift)
        r = np.zeros((K, K, M + 1), dtype=complex)
        r[:, :, M] = (self.zeta[self.N_f, self.N_f] / self.cfg.rho
                      * self._to_corner(field))
        return r.reshape(-1)

    def preconditioner(self):
        """Exact inverse of the flat-surface (f=0) operator, as a function
        of one right-hand side.

        That operator is mode-diagonal: one banded (M+1)x(M+1) block per
        lateral mode, sharing the FD rows and differing only by the
        a^2 * (omega^2 - |alpha|^2) diagonal on the interior rows and -Z/rho
        at row M.
        """
        K, M = self.K, self.M
        a2 = self.cfg.a ** 2
        shared = np.zeros((M + 1, M + 1))
        shared[0, 0] = 1.0
        shared[1:M] = a2 * self.Dzz[1:M]
        shared[M] = self.Dz[M]
        diag = np.zeros((M + 1, K, K), dtype=complex)
        diag[1:M] = a2 * self.lat
        diag[M] = -self.Z / self.cfg.rho
        return _BandedLU(shared, diag.reshape(M + 1, K * K)).solve


class _BandedLU:
    """LU factors of B banded (n x n) blocks A_k = shared + diag(d_k) that
    share every entry off the diagonal; diag is (n, B), column k holding d_k.

    All blocks are factored at once, without pivoting, in band storage:
    ab[i, p + j - i, k] holds entry (i, j) of block k, for half-bandwidth p.
    Elimination keeps the band, so L (unit, below) and U (above) overwrite
    it.  Each step of the factorization and of both substitutions is one
    level i, vectorized over the blocks.  A pivot below 1e-12 times the
    largest entry of its row in A_k raises NearSingularSystem before any
    solve.  solve() takes and returns vectors laid out block by block,
    (B, n) C-order flattened.
    """

    def __init__(self, shared: np.ndarray, diag: np.ndarray):
        n, B = diag.shape
        p = _half_bandwidth(shared)
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
                    f"flat-surface preconditioner: pivot {j} of block {k} "
                    f"vanishes")
            lj = lower[j]
            lj /= pivot
            upper[j] -= lj[:, None, :] * ab[j, p + 1:]
        self.n, self.p, self.B = n, p, B
        self._ab = ab[:n]
        self._inv_pivots = 1 / ab[:n, p]

    def solve(self, b: np.ndarray) -> np.ndarray:
        n, p, ab = self.n, self.p, self._ab
        # level i of the block-leading solution sits at row p + i, between
        # p zero rows on either side
        y = np.zeros((n + 2 * p, self.B), dtype=complex)
        y[p:n + p] = b.reshape(self.B, n).T
        for i in range(1, n):
            y[p + i] -= np.einsum("sk,sk->k", ab[i, :p], y[i:p + i])
        for i in range(n - 1, -1, -1):
            y[p + i] -= np.einsum("sk,sk->k", ab[i, p + 1:],
                                  y[p + i + 1:2 * p + i + 1])
            y[p + i] *= self._inv_pivots[i]
        return y[p:n + p].T.reshape(-1)


# --- GMRES -------------------------------------------------------------------
#
# The Krylov vectors hold 40,625 unknowns at full resolution.  numpy sends
# vdot, norm and matrix-vector products of that size to a multi-threaded
# BLAS, whose worker threads then spin between the many short calls of the
# Gram-Schmidt loop and double the CPU time of a solve.  The reductions
# below are numpy's own einsum loops (without `optimize`, einsum never
# calls BLAS); every other step is elementwise.

def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a contiguous 1-D complex vector."""
    r = v.view(np.float64)
    return float(np.sqrt(np.einsum("i,i->", r, r)))


def _givens(f: complex, g: complex):
    """(c, s, r) with c real >= 0 and [[c, s], [-conj(s), c]] @ [f, g] =
    [r, 0], in LAPACK zlartg's convention: r = (f/|f|) hypot(|f|, |g|),
    (1, 0, f) for g = 0 and (0, conj(g)/|g|, |g|) for f = 0."""
    if g == 0:
        return 1.0, 0j, f
    if f == 0:
        r = abs(g)
        return 0.0, g.conjugate() / r, complex(r)
    af = abs(f)
    d, u = math.hypot(af, abs(g)), f / af
    return af / d, u * g.conjugate() / d, u * d


def _gmres(matvec, psolve, b: np.ndarray, rtol: float, iter_max: int):
    """Left-preconditioned restarted GMRES (Saad & Schultz 1986) from x = 0,
    step for step as scipy.sparse.linalg.gmres (scipy 1.17) runs it with
    atol=0, restart=min(50, iter_max) and ceil(iter_max / restart) cycles:
    modified Gram-Schmidt, zlartg's Givens rotations, and the inner
    tolerance control of scipy gh-8400.

    Returns (x, inner iterations, ||b - A x||), the iterations counted as
    scipy's `pr_norm` callback counts them and the residual norm as the
    last cycle computed it.  Stops after the cycle in which
    ||b - A x|| <= rtol ||b||, on breakdown, or when the cycles run out;
    the caller checks the residual.
    """
    n = b.size
    x = np.zeros(n, dtype=complex)
    bnrm2 = _norm(b)
    if bnrm2 == 0:
        return x, 0, 0.0
    atol = rtol * bnrm2
    eps = np.finfo(complex).eps
    restart = min(50, iter_max)
    cycles = -(-iter_max // restart)

    # gh-8400: the inner loop stops on the preconditioned residual, ptol
    ptol_max_factor = 1.0
    ptol = _norm(psolve(b)) * min(ptol_max_factor, atol / bnrm2)
    presid = 0.0
    # v: Krylov basis; h[col]: Hessenberg column col, rotated in place
    v = np.empty((restart + 1, n), dtype=complex)
    h = np.zeros((restart, restart + 1), dtype=complex)
    givens = np.zeros((restart, 2), dtype=complex)
    iterations = 0
    r = b.copy()
    for _ in range(cycles):
        v[0] = psolve(r)
        tmp = _norm(v[0])
        v[0] *= 1 / tmp
        S = np.zeros(restart + 1, dtype=complex)
        S[0] = tmp

        breakdown = False
        for col in range(restart):
            w = psolve(matvec(v[col]))
            h0 = _norm(w)
            for k in range(col + 1):
                tmp = np.einsum("i,i->", v[k].conj(), w)
                h[col, k] = tmp
                w -= tmp * v[k]
            h1 = _norm(w)
            h[col, col + 1] = h1
            v[col + 1] = w
            if h1 <= eps * h0:  # the Krylov space is invariant
                h[col, col + 1] = 0
                breakdown = True
            else:
                v[col + 1] *= 1 / h1

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
        x += np.einsum("k,kn->n", y, v[:col + 1])

        r = b - matvec(x)
        rnorm = _norm(r)
        if rnorm <= atol or breakdown:
            break
        if presid <= ptol:
            ptol_max_factor = max(eps, 0.25 * ptol_max_factor)
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / rnorm)
    return x, iterations, rnorm


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
    ||b - A x|| / ||b|| as GMRES computed it at the end of its last cycle.
    """
    cf = coefficient_fields(profile, cfg, disc)
    op = _Operator(cfg, disc, cf)
    b = op.rhs()
    x, iterations, rnorm = _gmres(op.apply, op.preconditioner(), b,
                                  0.05 * disc.iter_tol, disc.iter_max)

    res = rnorm / _norm(b)
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
