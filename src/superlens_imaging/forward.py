"""Full (non-linearized) forward solver on the flattened domain.

The change of variables that maps the region between the rough surface and
the slab bottom onto the strip 0 < z < a turns the Helmholtz equation into
a variable-coefficient equation with five coefficient fields c1..c5 built
from the surface f and its first two derivatives.  The slab and the
radiation condition above it are eliminated analytically, in bounded
terms, into a per-mode impedance relation at z = a and a transfer to the
data plane, so the discrete unknowns live only below the slab: Fourier
collocation laterally (modes ||n||_inf <= N_f), finite differences of order
fd_order in z on M intervals.

Coefficient products are applied pointwise on an internal lateral grid of
P = 4*N_f + 1 points per period, which is wide enough that no aliased
frequency wraps back into the solver window as long as f is band-limited
to N_f; smooth non-band-limited profiles incur only their (spectrally
small) sampling tails.  Profiles without analytic derivatives (image
indicators) are replaced by their truncated Fourier series at the solver
cut-off, by solver_profile alone — the solver, like the inverse problem,
only ever sees the band-limited surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (PhysicalConfig, alpha_grid, cancelling_sum, gamma_eta_grid,
                   mode_grid, slab_terms, tau_of)
from .errors import (DegenerateSlab, GridTooLarge, NearSingularSystem,
                     NoConvergence, NyquistViolation, ProfileTooTall,
                     ResonantMode)
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


#: radians of the wave per z-step, omega * a / M, above which the z-grid
#: does not resolve it: the FAST glyph's top grid stays within 8% of
#: M = 256's up to 0.5, is off by 24% at 0.54 and mostly by 100% from 0.8
MAX_Z_PHASE_STEP = 0.5


def check_z_grid(cfg: PhysicalConfig, disc: Discretization) -> None:
    """Raise NyquistViolation, naming the smallest M that passes, when a
    z-step takes more than MAX_Z_PHASE_STEP radians of the wave."""
    step = cfg.omega * cfg.a / disc.M
    if step > MAX_Z_PHASE_STEP:
        raise NyquistViolation(
            f"M={disc.M} takes {step:.3g} radians of the wave per z-step, "
            f"above {MAX_Z_PHASE_STEP}: the z-grid needs M >= "
            f"{math.ceil(cfg.omega * cfg.a / MAX_Z_PHASE_STEP)}")


def solver_profile(profile: SurfaceProfile,
                   disc: Discretization) -> SurfaceProfile:
    """The surface the solver and the error metrics see: profile itself
    when it has derivatives, else its truncated Fourier series at the
    solver cut-off N_f, taken on the P x P product grid."""
    if profile.has_derivatives:
        return profile
    return band_limited_profile(profile, disc.N_f, quad_I=disc.P)


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
    """The five flattening coefficients on the solver grid: c1 = (a - f)^2,
    z-independent and positive (the transform requires f < a), and c2..c5
    as the z-profile az_j = a - z_j (M+1 levels) times P x P lateral fields,
    c2 = a^2 + az^2 g2, c3 = 2 az g3, c4 = 2 az g4 and c5 = az g5, for
    g2 = |grad f|^2, g3 = (a - f) f_x, g4 = (a - f) f_y and
    g5 = 2 |grad f|^2 + (a - f) Lap f.  one_minus_f_over_a feeds the
    interface row.
    """
    c1: np.ndarray
    az: np.ndarray
    g2: np.ndarray
    g3: np.ndarray
    g4: np.ndarray
    g5: np.ndarray
    one_minus_f_over_a: np.ndarray


def _surface_fields(profile: SurfaceProfile, cfg: PhysicalConfig,
                    disc: Discretization):
    """f, f_x, f_y, Laplacian f on the P x P product grid (eps included),
    of the surface solver_profile makes of profile."""
    check_unit_cell(cfg.period1, cfg.period2)
    profile = solver_profile(profile, disc)
    g = profile.sample_grid(disc.P, disc.P)
    gx, gy, glap = profile.derivative_grids(disc.P, disc.P)
    e = cfg.epsilon
    return e * g, e * gx, e * gy, e * glap


def coefficient_fields(profile: SurfaceProfile, cfg: PhysicalConfig,
                       disc: Discretization) -> CoefficientFields:
    f, fx, fy, flap = _surface_fields(profile, cfg, disc)
    a = cfg.a
    if np.max(np.abs(f)) >= a:
        raise ProfileTooTall(
            f"surface amplitude {np.max(np.abs(f)):.3g} reaches the slab at a={a}")
    gradsq = fx**2 + fy**2
    return CoefficientFields(c1=(a - f) ** 2,
                             az=a - np.arange(disc.M + 1) * (a / disc.M),
                             g2=gradsq, g3=(a - f) * fx, g4=(a - f) * fy,
                             g5=2 * gradsq + (a - f) * flap,
                             one_minus_f_over_a=1.0 - f / a)


# --- slab elimination --------------------------------------------------------

def _impedance(n1, n2, cfg: PhysicalConfig):
    """The slab eliminated over index arrays: (Z_n, zeta_n, G_n, g_n) with
    d/dz u_n(a+) = Z_n u_n(a) + zeta_n and u_n(b) = G_n u_n(a) + g_n.

    With q = e^{2i eta h} and D = phi + psi q (core.slab_terms),
    Z = i eta (phi - psi q)/D, G = (2 eta/rho) e^{i eta h}/D, zeta_0 =
    2 eta tau e^{i eta h}/D and g_0 = i tau (1 - q)/D, bounded however thick
    the slab; the forcing terms zeta_n and g_n vanish off n = 0.  Raises on
    the first resonant or degenerate mode.
    """
    gam, eta, resonant = gamma_eta_grid(n1, n2, cfg)

    def first(mask):
        k = np.flatnonzero(mask)[0]
        return int(np.ravel(n1)[k]), int(np.ravel(n2)[k])

    if resonant.any():
        raise ResonantMode(f"resonant mode {first(resonant)} in solver window")
    phi, psi, e1, q = slab_terms(gam, eta, cfg)
    den, degenerate = cancelling_sum(phi, psi * q)
    if degenerate.any():
        raise DegenerateSlab(
            f"slab elimination denominator cancels at mode {first(degenerate)}")
    tau = np.where((n1 == 0) & (n2 == 0), tau_of(cfg), 0j)
    return (1j * eta * (phi - psi * q) / den, 2 * eta * tau * e1 / den,
            (2 / cfg.rho) * eta * e1 / den, 1j * tau * (1 - q) / den)


# --- the discrete operator ---------------------------------------------------

# interior z-levels per pass of the matvec pipeline: the smallest block that
# runs as fast as larger ones while its five padded terms stay in cache
# between the stages
_LEVEL_BLOCK = 4

# GMRES restart length: it bounds a solve's largest array, its restart + 1
# Krylov vectors; at the default iter_max 200 it runs up to
# ceil(200 / 22) * 22 = 220 iterations, which converge the glyph up to
# eps = 4e-2
_RESTART = 22


class _Operator:
    """Matrix-free application of the collocation system.

    State layout: complex (M, K, K), C-order flattened; index [i, i1, i2]
    is mode (i1 - N_f, i2 - N_f) at level z_{i+1}, so each level is one
    contiguous (K, K) spectrum.  The flattened surface z_0 = 0, where the
    field vanishes, holds no unknowns: u_0 = 0 drops out of every stencil.
    Rows 0..M-2 are the transformed PDE at levels 1..M-1, row M-1 the
    impedance interface condition at level M.

    apply() takes each lateral spectrum to the field by an inverse transform
    of length P along both axes, with mode n at index n + N_f: the corner
    [:K, :K] of a P x P slice, the rest zero.  That gives the field times
    e^{iN_f(x+y)}; the coefficient products are pointwise, so the forward
    transform cancels the phase, and product modes wrap onto indices
    K..P-1, clear of the corner.  The interior levels go through the whole
    pipeline in blocks of at most _LEVEL_BLOCK: write the five PDE terms as
    (K, K) spectra with their z-factors (lat T, 2i alpha az T_z, az T_z,
    az^2 T_zz), transform them into the padded workspace, multiply them by
    c1 and g2..g5 and sum them into the first term, transform it back, and
    add its corner to the output rows.  The block's z-derivatives land in
    its last two spectra, one einsum per level over its own stencil, read
    from x where it lies; a^2 T_zz, the constant part of c2 T_zz, goes into
    the output rows before the z-factors scale them in place.  The
    workspace, (5, _LEVEL_BLOCK, P, P) complex, and the block's spectra live
    as long as the operator, and row M-1's impedance trace and one-sided dz
    reuse their first slices after the last block.  apply(x, out=None)
    writes into out when given, else into a fresh vector; out must not
    overlap x, and the buffers are shared, so one operator must not run two
    apply() calls at once.

    The workspace heads one buffer of max(5 _LEVEL_BLOCK P^2, M K^2)
    complex values, whose first M K^2, `work`, lend GMRES a vector-sized
    temporary while no matvec runs: every apply() clobbers work.
    """

    def __init__(self, cfg: PhysicalConfig, disc: Discretization,
                 cf: CoefficientFields):
        K, P, M, N = disc.K, disc.P, disc.M, disc.N_f
        self.K, self.P, self.M, self.N_f = K, P, M, N
        self.cfg, self.cf = cfg, cf
        self.dim = K * K * M

        n1g, n2g = mode_grid(N)
        ax, ay, asq = alpha_grid(n1g, n2g, cfg)
        self.two_iax, self.two_iay = 2j * ax, 2j * ay
        self.lat = cfg.omega**2 - asq  # (omega^2 - |alpha|^2) per mode
        # the slab impedance seen through (1 - f/a)
        self.trace_coef = cf.one_minus_f_over_a / cfg.rho

        self.Dz, self.Dzz = (deriv_matrix(M, cfg.a / M, d, disc.fd_order)
                             for d in (1, 2))

        self.Z, self.zeta, self.G, self.g = _impedance(n1g, n2g, cfg)

        block = min(_LEVEL_BLOCK, M - 1)
        self._spec = np.empty((5, block, K, K), dtype=complex)
        ws = 5 * block * P * P
        self._buf = np.empty(max(ws, self.dim), dtype=complex)
        self._ws = self._buf[:ws].reshape(5, block, P, P)
        self.work = self._buf[:self.dim]
        # state index i's stencil (lo, rows): rows i of Dz and Dzz over the
        # union of their nonzero columns, the first of which is lo, on the
        # levels 1..M
        D = np.stack((self.Dz, self.Dzz))[:, 1:, 1:]
        self._stencils = []
        for i in range(M):
            cols = np.flatnonzero(D[:, i].any(axis=0))
            self._stencils.append(
                (cols[0], D[:, i, cols[0]:cols[-1] + 1].copy()))

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

    def _z_derivatives(self, x: np.ndarray, j0: int, j1: int,
                       out: np.ndarray) -> None:
        """Write the first and second z-derivatives of the level-major
        state x at its indices j0..j1-1 into out, (2, j1-j0, K, K) with
        contiguous (K, K) levels.

        Index i of a derivative is the sum of D's row i times x's levels
        over the row's columns, taken in increasing level, as a CSR product
        sums it (the zeros it skips add nothing); so the two agree bit for
        bit.  Each level is one einsum over its own stencil, which without
        `optimize` runs the sum as scaled adds of whole levels and never
        calls BLAS.
        """
        levels = x.reshape(self.M, -1).view(np.float64)
        dr = out.reshape(2, j1 - j0, -1).view(np.float64)
        for j in range(j0, j1):
            lo, rows = self._stencils[j]
            np.einsum("ds,sk->dk", rows, levels[lo:lo + rows.shape[1]],
                      out=dr[:, j - j0])

    def apply(self, x: np.ndarray, out=None) -> np.ndarray:
        M = self.M
        X = x.reshape(M, self.K, self.K)
        out = np.empty(self.dim, dtype=complex) if out is None else out
        rows = out.reshape(X.shape)

        # rows 0..M-2: c1 lat + c2 szz - c3 sxz - c4 syz - c5 sz, the field
        # terms summed left to right per block of levels, a^2 szz spectrally
        cf, block = self.cf, len(self._ws[0])
        for j0 in range(0, M - 1, block):
            j1 = min(j0 + block, M - 1)
            spec, ws = self._spec[:, :j1 - j0], self._ws[:, :j1 - j0]
            self._z_derivatives(x, j0, j1, spec[3:])
            np.multiply(self.cfg.a ** 2, spec[4], out=rows[j0:j1])
            az = cf.az[j0 + 1:j1 + 1, None, None]
            np.multiply(self.lat, X[j0:j1], out=spec[0])
            np.multiply(az * az, spec[4], out=spec[4])
            np.multiply(az, spec[3], out=spec[3])
            np.multiply(self.two_iax, spec[3], out=spec[1])
            np.multiply(self.two_iay, spec[3], out=spec[2])
            self._to_field(spec, ws)
            lat, sxz, syz, sz, szz = ws
            np.multiply(cf.c1, lat, out=lat)
            for g, term, accumulate in ((cf.g2, szz, np.add),
                                        (cf.g3, sxz, np.subtract),
                                        (cf.g4, syz, np.subtract),
                                        (cf.g5, sz, np.subtract)):
                np.multiply(g, term, out=term)
                accumulate(lat, term, out=lat)
            rows[j0:j1] += self._to_corner(lat)

        # row M-1: one-sided dz minus the impedance term, in the first
        # slices of the blocks' buffers
        trace, field = self._spec[0, 0], self._ws[0, 0]
        dz = self._spec[3:, :1]
        self._z_derivatives(x, M - 1, M, dz)
        np.multiply(self.Z, X[-1], out=trace)
        self._to_field(trace, field)
        np.multiply(self.trace_coef, field, out=field)
        np.subtract(dz[0, 0], self._to_corner(field), out=rows[-1])
        return out

    def rhs(self) -> np.ndarray:
        """The right-hand side's last K^2 entries, row M-1's: its rows
        0..M-2 are 0, so this is its only nonzero level."""
        P = self.P
        # the forcing (1 - f/a) zeta_0 / rho, its field shifted by
        # e^{iN_f(x+y)} so that its spectrum lands in the corner
        shift = np.exp(2j * np.pi * (self.N_f * np.arange(P) % P) / P)
        field = self.cf.one_minus_f_over_a * np.multiply.outer(shift, shift)
        return (self.zeta[self.N_f, self.N_f] / self.cfg.rho
                * self._to_corner(field)).reshape(-1)

    def preconditioner(self):
        """Exact inverse of the mean-coefficient operator (Concus & Golub
        1973), as a function of one right-hand side.

        That operator takes each coefficient field at its lateral mean over
        the product grid, which is the mode-diagonal part of multiplying by
        the field: one banded M x M block per lateral mode, sharing the FD
        rows (a^2 + az_j^2 <g2>) Dzz - az_j <g5> Dz on interior level j and
        Dz on the last, and differing only by the <c1> (omega^2 - |alpha|^2)
        diagonal on the interior rows and -<1 - f/a> Z/rho on the last.  c3
        and c4 drop out: (a - f) f_x = -d/dx (a - f)^2 / 2 with f periodic,
        so their means vanish.  With real FD weights, real omega and alpha
        and real fields, the last diagonal is its only complex entry.  At
        f = 0 this is the flat-surface operator.
        """
        M, cf = self.M, self.cf
        az = cf.az[1:M, None]
        shared = np.empty((M, M))
        shared[:-1] = ((self.cfg.a ** 2 + az * az * np.mean(cf.g2))
                       * self.Dzz[1:M, 1:]
                       - az * np.mean(cf.g5) * self.Dz[1:M, 1:])
        shared[-1] = self.Dz[M, 1:]
        interior = np.mean(cf.c1) * self.lat.reshape(-1)
        last = (-np.mean(cf.one_minus_f_over_a) / self.cfg.rho
                * self.Z.reshape(-1))
        return _BandedLU(shared, interior, last).solve


class _BandedLU:
    """LU factors of B banded (n x n) blocks A_k = shared + diag(d_k) that
    share every entry off the diagonal: d_k is entry k of the real interior,
    (B,), on rows 0..n-2 and entry k of the complex last, (B,), on row
    n-1.

    All blocks are factored at once, without pivoting, in envelope storage:
    row i keeps its entries from column lo_i, its first nonzero in A, to
    hi_i, its last nonzero once the rows lo_i..i-1 have been eliminated from
    it.  Elimination without pivoting fills nothing outside that envelope,
    so L (unit, left of the diagonal) and U overwrite it.  A row is only
    subtracted from later rows, so every factor is real but the last pivot:
    the envelope is float64, and the last pivot is formed in complex from
    its real part and last.imag.  Each step of the factorization and of both
    substitutions is one row, vectorized over the blocks, and a complex
    band-storage LU gives the same factors and solves bit for bit.  A pivot
    below 1e-12 times the largest entry of its row in A_k raises
    NearSingularSystem before any solve; the diagonal then holds 1/pivot,
    the last row's its real part.  solve(b, out=None) copies the level-major
    b, (n, B) C-order flattened, into out (a fresh vector when out is None)
    and substitutes there in place, on its float64 parts; out may be b
    itself.
    """

    def __init__(self, shared: np.ndarray, interior: np.ndarray,
                 last: np.ndarray):
        n, B = len(shared), len(last)
        pattern = (shared != 0) | np.eye(n, dtype=bool)
        lo = np.argmax(pattern, axis=1)
        hi = n - 1 - np.argmax(pattern[:, ::-1], axis=1)
        # eliminating rows lo_i..i-1 from row i fills it out to their ends
        for i in range(n):
            hi[i] = np.max(hi[lo[i]:i + 1])
        start = np.concatenate(([0], np.cumsum(hi - lo + 1)))
        self._env = np.empty((start[-1], B))
        rows = [self._env[start[i]:start[i + 1]] for i in range(n)]

        # row by row: subtract l_ij times row j of U for j = lo_i..i-1, each
        # entry taking its updates in increasing j, as a column-by-column
        # elimination applies them; l_ij is the entry times 1/pivot_j, as
        # numpy divides complex numbers with no imaginary part
        for i, row in enumerate(rows):
            row[...] = shared[i, lo[i]:hi[i] + 1, None]
            pivot = row[i - lo[i]]
            pivot += interior if i < n - 1 else last.real
            row_max = np.max(np.abs(row), axis=0)
            if i == n - 1:
                row_max = np.maximum(row_max, np.abs(pivot + 1j * last.imag))
            for j in range(lo[i], i):
                lij = row[j - lo[i]]
                lij *= rows[j][j - lo[j]]
                row[j + 1 - lo[i]:hi[j] + 1 - lo[i]] -= (
                    lij * rows[j][j + 1 - lo[j]:])
            if i == n - 1:
                pivot = pivot + 1j * last.imag
            small = ~(np.abs(pivot) > 1e-12 * row_max)
            if small.any():
                k = int(np.argmax(small))
                raise NearSingularSystem(
                    f"mean-coefficient preconditioner: pivot {i} of block "
                    f"{k} vanishes")
            np.divide(1, pivot, out=pivot)
        # the last row's 1/pivot, complex, and its real part in the envelope
        self._last_inv_pivot = pivot
        rows[-1][-1] = pivot.real
        self.n, self.B = n, B
        # (level, its L row, first column) for the rows with an L part, and
        # from the last row up (level, its U row right of the diagonal, last
        # column, 1/pivot)
        inv_pivots = [row[i - lo[i]] for i, row in enumerate(rows[:-1])]
        inv_pivots.append(self._last_inv_pivot)
        self._lower = [(i, row[:i - lo[i]], lo[i])
                       for i, row in enumerate(rows) if lo[i] < i]
        self._upper = [(i, row[i - lo[i] + 1:], hi[i], inv_pivots[i])
                       for i, row in enumerate(rows)][::-1]

    def solve(self, b: np.ndarray, out=None) -> np.ndarray:
        out = np.empty(self.n * self.B, dtype=complex) if out is None else out
        np.copyto(out, b)
        y = out.reshape(self.n, self.B)
        # the real and imaginary parts of y, (2, n, B), and a row's sums
        parts = np.moveaxis(y.view(np.float64).reshape(self.n, self.B, 2),
                            2, 0)
        sums = np.empty((2, self.B))
        for i, lower, j0 in self._lower:
            parts[:, i] -= np.einsum("sk,csk->ck", lower, parts[:, j0:i],
                                     out=sums)
        for i, upper, j1, inv_pivot in self._upper:
            if j1 > i:
                parts[:, i] -= np.einsum("sk,csk->ck", upper,
                                         parts[:, i + 1:j1 + 1], out=sums)
            y[i] *= inv_pivot
        return out


# --- GMRES -------------------------------------------------------------------
#
# The Krylov vectors hold 40,000 unknowns at full resolution.  numpy sends
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


def _gmres(matvec, psolve, b: np.ndarray, n: int, work: np.ndarray,
           rtol: float, iter_max: int):
    """Left-preconditioned restarted GMRES (Saad & Schultz 1986) from x = 0,
    step for step as scipy.sparse.linalg.gmres (scipy 1.17) runs it with
    atol=0, restart=min(_RESTART, iter_max) and ceil(iter_max / restart)
    cycles: modified Gram-Schmidt, zlartg's Givens rotations, and the inner
    tolerance control of scipy gh-8400, so an iter_max above 22 is rounded
    up to whole 22-iteration cycles (200 allows 220).

    The right-hand side is the n-vector that is 0 but for its trailing
    b.size entries, b.  matvec(v, out=buf) puts A v in buf (buf must not
    overlap v) and psolve(v, out=vec) the preconditioned v in vec, which
    may be v itself.  work, an n-vector, takes the Gram-Schmidt and update
    temporaries; nothing stays in it across a matvec or psolve call, which
    may clobber it.  psolve runs once per cycle start and once per
    iteration: the first cycle's preconditioned b also sets gh-8400's first
    inner tolerance.  Returns (x, inner iterations, ||b - A x|| / ||b||),
    the iterations counted as scipy's `pr_norm` callback counts them, the
    norms taken over n-vectors and the residual as the last cycle computed
    it.  Stops after the cycle in which ||b - A x|| <= rtol ||b||, on
    breakdown, or when the cycles run out; the caller checks the residual.
    Besides x, allocated when the first cycle sums its update, it holds the
    Krylov vectors, each allocated when a cycle first reaches it and reused
    by the later cycles: a k-iteration cycle holds k + 1 of them.  The first
    takes b, each matvec lands in the next, and each is preconditioned in
    place; the last one a cycle reached holds its update's products, then
    b - A x.  One (restart + 1, n) block would take its full size however
    short the solve, and at full resolution it is under glibc's 32 MiB cap
    on its dynamic mmap threshold, so freeing it would raise that threshold
    and the trim threshold past every later array and the heap would never
    be given back.
    """
    # ||b|| over the whole vector: einsum's partial sums depend on where
    # each entry falls
    v = [np.empty(n, dtype=complex)]
    lead = n - b.size
    v[0][:lead] = 0
    v[0][lead:] = b
    bnrm2 = _norm(v[0])
    if bnrm2 == 0:
        return np.zeros(n, dtype=complex), 0, 0.0
    atol = rtol * bnrm2
    eps = np.finfo(complex).eps
    restart = min(_RESTART, iter_max)
    cycles = -(-iter_max // restart)

    # gh-8400: the inner loop stops on the preconditioned residual, ptol,
    # first set from the preconditioned b that starts the first cycle
    ptol_max_factor = 1.0
    presid = 0.0
    # v: Krylov basis, grown as the cycles reach it; h[col]: Hessenberg
    # column col, rotated in place
    h = np.zeros((restart, restart + 1), dtype=complex)
    givens = np.zeros((restart, 2), dtype=complex)
    x = None
    iterations = 0
    r = v[0]
    for _ in range(cycles):
        psolve(r, out=v[0])
        tmp = _norm(v[0])
        if x is None:  # the first cycle, whose r is b
            ptol = tmp * min(ptol_max_factor, atol / bnrm2)
        v[0] *= 1 / tmp
        S = np.zeros(restart + 1, dtype=complex)
        S[0] = tmp

        breakdown = False
        for col in range(restart):
            if len(v) == col + 1:
                v.append(np.empty(n, dtype=complex))
            w = psolve(matvec(v[col], out=v[col + 1]), out=v[col + 1])
            h0 = _norm(w)
            for k in range(col + 1):
                tmp = np.einsum("i,i->", np.conjugate(v[k], out=work), w)
                h[col, k] = tmp
                w -= np.multiply(tmp, v[k], out=work)
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
        # x += einsum("k,kn->n", y, v) bit for bit: the same products,
        # summed in the same order, each held in the spent v[col + 1]; the
        # first cycle sums them into x itself, a later one into work
        if x is None:
            x = update = np.zeros(n, dtype=complex)
        else:
            update = work
            update[...] = 0
        for k in range(col + 1):
            update += np.einsum(",n->n", y[k], v[k], out=v[col + 1])
        if update is work:
            x += work

        # b - A x, as np.subtract(b, A x) gives it, signed zeros included
        r = matvec(x, out=v[col + 1])
        np.subtract(0, r[:lead], out=r[:lead])
        np.subtract(b, r[lead:], out=r[lead:])
        rnorm = _norm(r)
        if rnorm <= atol or breakdown:
            break
        if presid <= ptol:
            ptol_max_factor = max(eps, 0.25 * ptol_max_factor)
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / rnorm)
    return x, iterations, rnorm / bnrm2


# --- solution container ------------------------------------------------------

@dataclass(frozen=True)
class ForwardSolution:
    """top: coefficients u_n(b) on the solver window; top_grid: u(x_i, b)
    on the I x I grid."""
    top: SpectrumField
    top_grid: np.ndarray
    iterations: int
    residual: float


def solve_forward(profile: SurfaceProfile, cfg: PhysicalConfig,
                  disc: Discretization) -> ForwardSolution:
    """Solve the flattened scattering problem and evaluate the data plane.

    GMRES preconditioned by the exact inverse of the mean-coefficient
    operator, given only the right-hand side's nonzero level and borrowing
    the operator's idle workspace; the reported residual is the true
    relative residual of the unpreconditioned system, ||b - A x|| / ||b||
    as GMRES computed it at the end of its last cycle.  A grid whose arrays
    do not fit in memory raises GridTooLarge, and a z-grid too coarse for
    the wave NyquistViolation, before any array is built.
    """
    check_z_grid(cfg, disc)
    try:
        cf = coefficient_fields(profile, cfg, disc)
        op = _Operator(cfg, disc, cf)
        x, iterations, res = _gmres(op.apply, op.preconditioner(), op.rhs(),
                                    op.dim, op.work, 0.05 * disc.iter_tol,
                                    disc.iter_max)
        if res > disc.iter_tol:
            raise NoConvergence(
                f"relative residual {res:.3e} above tolerance "
                f"{disc.iter_tol:.1e} after {iterations} iterations")

        top = SpectrumField(op.G * x[-op.K**2:].reshape(op.K, op.K) + op.g,
                            disc.N_f, disc.N_f)
        top_grid = synthesize(top, disc.N_f, (disc.I, disc.I))
    except MemoryError as exc:
        raise GridTooLarge(
            f"the grid I={disc.I}, N_f={disc.N_f}, M={disc.M} does not fit "
            f"in memory") from exc
    return ForwardSolution(top=top, top_grid=top_grid,
                           iterations=iterations, residual=res)


def reflected_flux(top: SpectrumField, cfg: PhysicalConfig) -> float:
    """Outgoing energy flux above the slab, normalized by the incident
    flux.  For lossless media this cannot exceed 1 beyond discretization
    error (the sound-soft bottom returns all energy)."""
    n1, n2 = top.mode_arrays()
    gam, _, _ = gamma_eta_grid(n1, n2, cfg)
    R = top.values.copy()
    R[top.W1, top.W2] -= np.exp(-1j * cfg.omega * cfg.b)
    # |R|^2 of the propagating modes only: an evanescent mode carries no
    # flux
    propagating = np.abs(gam.imag) < 1e-12 * cfg.omega
    return float(np.sum(np.abs(R[propagating]) ** 2
                        * gam.real[propagating] / cfg.omega))
