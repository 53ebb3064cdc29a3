"""Dense complex linear algebra and 1-D wavefunction utilities.

Natural units (hbar = 1) throughout.  All state vectors and operators are
dense complex numpy arrays; dimensions stay desk-scale (a hard cap of 2**20
guards tensor constructions).

Fourier convention for the 1-D grids::

    psi_tilde(P) = (2*pi)**-0.5 * integral psi(Q) exp(-i*P*Q) dQ
    psi(Q)       = (2*pi)**-0.5 * integral psi_tilde(P) exp(+i*P*Q) dP

so that a position shift by c multiplies the momentum amplitudes by
exp(-i*P*c), and a Gaussian exp(-Q**2 / (2*D**2)) maps to a Gaussian of
width 1/D.  Norms are the Riemann sums dx * sum(|psi|**2); with this
convention the discrete transform below is exactly unitary.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property, lru_cache, update_wrapper

import numpy as np

from .errors import DimensionMismatch, ResourceLimit, ValidationError

DIMENSION_CAP = 2**20

# Hermiticity is checked relative to the largest entry.
HERMITIAN_RTOL = 1e-12

CACHES: list = []  # every `exact_cache` function, in the order the modules define them: tests clear them in a loop


class Record:
    """Base of the package's records: the methods `dataclass(frozen=True)` would generate, defined once.

    A subclass declares its fields as class annotations, in order, each with
    an optional default; `__init_subclass__` reads them once per class.  A
    record is built from its fields by position or keyword, a missing field
    takes its default, and `__post_init__`, where the class has one, runs
    last.  A record is frozen: assigning or deleting an attribute raises
    `dataclasses.FrozenInstanceError`, and the record hashes its fields.
    Two records are equal when they are of the same class and their fields
    are equal.  `dataclasses` generates these methods per class with
    `exec`, which a cold process pays for on import.
    """

    _fields: tuple = ()
    _defaults: dict = {}
    _post_init = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(name for name in cls.__dict__.get("__annotations__", ()) if name not in cls._fields)
        cls._fields += own
        cls._defaults = {**cls._defaults, **{name: cls.__dict__[name] for name in own if name in cls.__dict__}}
        cls._post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if kwargs or len(args) != len(cls._fields):
            args = cls._complete(args, kwargs)
        for name, value in zip(cls._fields, args):  # not through __dict__, which would slow every attribute read
            object.__setattr__(self, name, value)
        if cls._post_init:
            self.__post_init__()

    @classmethod
    def _complete(cls, args: tuple, kwargs: dict) -> tuple:
        """One value per field, in order: `args` first, then `kwargs`, then the defaults."""
        names, rest = cls._fields, cls._fields[len(args) :]
        if len(args) > len(names) or not kwargs.keys() <= set(rest):
            raise TypeError(f"{cls.__name__}() takes the fields {names}, got {len(args)} positional and {list(kwargs)}")
        try:
            return args + tuple([kwargs[name] if name in kwargs else cls._defaults[name] for name in rest])
        except KeyError as missing:
            raise TypeError(f"{cls.__name__}() missing field {missing}") from None

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


def is_hermitian(m: np.ndarray) -> bool:
    """max|m - m^H| <= HERMITIAN_RTOL * max(max|m|, 1)."""
    return bool(np.abs(m - m.conj().T).max() <= HERMITIAN_RTOL * max(np.abs(m).max(), 1.0))


class Domain(Record):
    """An interval of ints or of floats that one invariant admits, and why a bound sits where it does.

    An infinite end is open, so a float domain refuses NaN and both infinities; an int domain refuses all but an int
    or a numpy integer (a bool too).  `require` refuses with one message; `str` is the interval `twostate list` prints.
    """

    kind: str  # int | float
    lo: float = -math.inf
    hi: float = math.inf
    ends: str = "[]"  # the brackets of the lower and the upper end
    why: str = ""  # the reason a bound sits where it does, where it has one

    def __post_init__(self):
        if self.kind not in ("int", "float") or self.ends not in ("[]", "[)", "(]", "()") or not self.lo <= self.hi:
            raise ValidationError(f"not an int or float interval: {self!r}")
        ends = ("(" if self.lo == -math.inf else self.ends[0]) + (")" if self.hi == math.inf else self.ends[1])
        object.__setattr__(self, "ends", ends)

    def __str__(self) -> str:
        return f"{self.ends[0]}{self.lo}, {self.hi}{self.ends[1]}"

    def require(self, value, what: str) -> None:
        """Refuse as `what` a value this domain does not hold."""
        if (self.kind == "int" and (isinstance(value, bool) or not isinstance(value, (int, np.integer)))) or not (
            (self.lo < value if self.ends[0] == "(" else self.lo <= value)
            and (value < self.hi if self.ends[1] == ")" else value <= self.hi)
        ):
            noun, why = "an integer" if self.kind == "int" else "a float", f"; {self.why}" if self.why else ""
            raise ValidationError(f"{what} must be {noun} in {self}, got {value!r}{why}")

    def capped(self, hi, why: str) -> "Domain":
        """This domain up to `hi`, which it must hold, for the reason `why`: a cap narrows and never widens."""
        self.require(hi, "a cap")
        return Domain(self.kind, self.lo, hi, self.ends[0] + "]", "; ".join(filter(None, (self.why, why))))


# One domain per invariant the package checks; a scenario parameter declares one of these or a narrower one.
# The Gaussian (pi*D**2)**-0.25 * exp(-Q**2 / (2*D**2)) needs D**2, up to a factor 2*pi, as a normal float.
WIDTH = Domain("float", 2.0**-511, math.sqrt(sys.float_info.max / 8), why="its square must be a normal float")
POSITIVE = Domain("float", 0, math.inf, "()")
NONNEGATIVE = Domain("float", 0, math.inf, "[)")
FINITE = Domain("float")
COUNT = Domain("int", 1)
SEED = Domain("int", 0, why="numpy's default_rng refuses a negative seed")
GRID_POINTS = Domain("int", 16)


def unit_vector(vec, dtype=float) -> np.ndarray:
    """vec / norm(vec) as a 1-D `dtype` array; a vector that is empty, zero or not finite is refused.

    A norm that overflows, or whose square is not a normal float, is taken again after dividing by max|vec|.
    """
    v = np.asarray(vec, dtype=dtype)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
    if v.ndim == 1 and not 2.0**-511 <= norm < np.inf and np.isfinite(v).all() and v.any():
        v = v / np.abs(v).max()
        norm = np.linalg.norm(v)
    if v.ndim != 1 or not 0 < norm < np.inf:
        raise ValidationError(f"need a nonzero, finite 1-D vector, got shape {v.shape} and norm {norm}")
    return v / norm


def _read_only(value):
    """`value`, with every array it is or holds through tuples and `Record` fields made read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (tuple, Record)):
        for item in value if isinstance(value, tuple) else value._values():
            _read_only(item)
    return value


def _as_complex_matrix(m) -> np.ndarray:
    a = np.array(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValidationError("zero-dimensional operator")
    if not np.all(np.isfinite(a)):
        raise ValidationError("operator entries must be finite")
    return _read_only(a)  # a private, frozen copy keeps the cached spectrum valid


class DenseOperator(Record):
    """Dense complex Hermitian operator: a matrix that fails `is_hermitian` is refused."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_complex_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        if not is_hermitian(m):
            raise ValidationError("operator matrix fails the Hermiticity check")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _spectrum(self) -> "SpectralDecomposition":
        return _decompose(self.matrix)

    def __add__(self, other: "DenseOperator") -> "DenseOperator":
        if self.dim != other.dim:
            raise DimensionMismatch(f"operator dims {self.dim} and {other.dim}")
        return DenseOperator(self.matrix + other.matrix)


def identity(dim: int) -> DenseOperator:
    return DenseOperator(np.eye(dim, dtype=complex))


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


_PAULI_OPERATORS = {"x": DenseOperator(PAULI_X), "y": DenseOperator(PAULI_Y), "z": DenseOperator(PAULI_Z)}


def pauli(axis: str) -> DenseOperator:
    """sigma_x, sigma_y or sigma_z: one shared, read-only operator per axis, decomposed once per process."""
    return _PAULI_OPERATORS[axis]


def spin_direction(direction) -> DenseOperator:
    """sigma . n for a unit 3-vector n (normalized here for convenience)."""
    n = unit_vector(direction)
    return DenseOperator(n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z)


def top_eigenvector(m: np.ndarray) -> np.ndarray:
    """Eigenvector of the largest eigenvalue of Hermitian m, phase fixed so its leading component is real."""
    vec = np.linalg.eigh(m)[1][:, -1]
    k = int(np.argmax(np.abs(vec)))
    return vec * np.exp(-1j * np.angle(vec[k]))


def spin_up(direction) -> np.ndarray:
    """+1 eigenvector of sigma . n, phase fixed so the leading component is real."""
    return top_eigenvector(spin_direction(direction).matrix)


def projector_onto(vec) -> DenseOperator:
    """|v><v| / <v|v> as a dense operator."""
    v = unit_vector(vec, complex)
    return DenseOperator(np.outer(v, v.conj()))


class SpectralDecomposition(Record):
    """Distinct (grouped) eigenvalues with orthonormal eigenvector blocks.

    blocks[n] is a d x k_n matrix whose columns span the eigenspace of
    eigenvalues[n], so P_n = V_n V_n^H.  The kernels contract through the
    blocks and never form a d x d projector.
    """

    eigenvalues: np.ndarray
    blocks: list[np.ndarray]

    @property
    def dim(self) -> int:
        return self.blocks[0].shape[0]

    def _check_dim(self, *vecs) -> None:
        if any(np.shape(v) != (self.dim,) for v in vecs):
            raise DimensionMismatch(f"vector shapes {[np.shape(v) for v in vecs]} vs operator dim {self.dim}")

    def selection_amplitudes(self, row, ket) -> np.ndarray:
        """<Phi|P_n|Psi> = (row . V_n)(V_n^H . ket) for every eigenvalue, in order."""
        self._check_dim(row, ket)
        return np.array([(row @ v) @ (v.conj().T @ ket) for v in self.blocks])

    def branches(self, ket) -> np.ndarray:
        """P_n|Psi> = V_n (V_n^H . ket) for every eigenvalue, one row each."""
        self._check_dim(ket)
        return np.array([v @ (v.conj().T @ ket) for v in self.blocks])


def hermitian_eigendecomposition(op: DenseOperator) -> SpectralDecomposition:
    """Eigenvalues of a Hermitian operator, grouped into degenerate eigenvector blocks.

    Eigenvalues closer than 1e-9 times the spectral radius are merged into one
    block.  The decomposition is computed once per operator and cached on it
    (operator matrices are read-only, so the cache cannot go stale).  A
    diagonal matrix with an exactly real diagonal (no nonzero off-diagonal
    entry), such as a basis projector, needs no LAPACK call: its eigenvalues
    are the diagonal in stable-sorted order and its eigenvectors the matching
    columns of the identity.  Other real matrices go through the real LAPACK
    routine, the rest through the complex one.
    """
    return op._spectrum


def _decompose(m: np.ndarray) -> SpectralDecomposition:
    diag = np.diagonal(m)
    if np.count_nonzero(m) == np.count_nonzero(diag) and not np.any(diag.imag):
        order = np.argsort(diag.real, kind="stable")
        w, v = diag.real[order], np.zeros(m.shape, dtype=complex, order="F")
        v[order, np.arange(order.size)] = 1.0  # the identity's columns in `order`, as np.eye(d)[:, order] lays them out
    else:
        w, v = np.linalg.eigh(m if np.any(m.imag) else m.real)
    v = _read_only(v.astype(complex, copy=False))  # the cache shares the blocks with every caller
    tol = 1e-9 * max(np.abs(w).max(), 1e-300)
    eigenvalues: list[float] = []
    blocks: list[np.ndarray] = []
    start, ws = 0, w.tolist()  # Python floats: the scan below is per eigenvalue
    for i in range(1, len(ws) + 1):
        if i == len(ws) or ws[i] - ws[start] > tol:
            eigenvalues.append(ws[start] if i - start == 1 else float(w[start:i].mean()))
            blocks.append(v[:, start:i])
            start = i
    return SpectralDecomposition(_read_only(np.array(eigenvalues)), blocks)


def tensor_product(a, b):
    """Kronecker product of two operators or two vectors (dimension-capped)."""
    if isinstance(a, DenseOperator) and isinstance(b, DenseOperator):
        if a.dim * b.dim > DIMENSION_CAP:
            raise ResourceLimit(f"tensor dimension {a.dim * b.dim} exceeds cap {DIMENSION_CAP}")
        return DenseOperator(np.kron(a.matrix, b.matrix))
    av, bv = np.asarray(a), np.asarray(b)
    if av.ndim == 1 and bv.ndim == 1:
        if av.size * bv.size > DIMENSION_CAP:
            raise ResourceLimit(f"tensor dimension {av.size * bv.size} exceeds cap {DIMENSION_CAP}")
        return np.kron(av.astype(complex), bv.astype(complex))
    raise ValidationError("tensor_product expects two operators or two vectors")


def apply_on_site(op: np.ndarray, ket: np.ndarray, site: int) -> np.ndarray:
    """A one-site operator applied along axis `site` of a product-space ket tensor, no d x d matrix formed."""
    return np.moveaxis(np.tensordot(op, ket, axes=([1], [site])), 0, site)


class Grid1D(Record):
    """Uniform inclusive grid on finite bounds [lo, hi]; `points` is an integer of at least 16."""

    lo: float
    hi: float
    points: int

    def __post_init__(self):
        GRID_POINTS.require(self.points, "grid points")
        if not (math.isfinite(self.hi - self.lo) and self.hi > self.lo):
            raise ValidationError(f"grid bounds {self.lo}, {self.hi} must be finite, the upper above the lower")

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.points - 1)

    @cached_property
    def values(self) -> np.ndarray:
        return _read_only(np.linspace(self.lo, self.hi, self.points))


def unit_density(d: np.ndarray, spacing: float) -> np.ndarray:
    """A density sampled `spacing` apart, scaled to unit integral (its Riemann sum)."""
    total = d.sum() * spacing
    if total == 0.0:
        raise ValidationError("a zero density cannot be normalized")
    return d / total


class WaveFunction1D(Record):
    """Sampled complex wavefunction on a uniform grid.

    `representation` is 'position' or 'momentum'.  `conjugate_lo` remembers
    the lower bound of the conjugate-space grid so a round trip through
    fourier_pair lands on the original grid.
    """

    grid: Grid1D
    values: np.ndarray
    representation: str = "position"
    conjugate_lo: float | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.points,):
            raise DimensionMismatch("wavefunction values do not match the grid")
        if not np.all(np.isfinite(v)):
            raise ValidationError("wavefunction values must be finite")
        if self.representation not in ("position", "momentum"):
            raise ValidationError(f"unknown representation {self.representation!r}")
        object.__setattr__(self, "values", v)

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.spacing)

    def norm(self) -> float:
        return float(np.sqrt(self.norm_squared()))

    def normalized(self) -> "WaveFunction1D":
        """This function over its norm; a norm that under- or overflows is taken again after dividing by max|v|."""
        v = self.values
        with np.errstate(over="ignore"):
            n = self.norm()
        if n in (0.0, math.inf) and v.any():
            v = v / np.abs(v).max()
            n = float(np.sqrt(np.sum(np.abs(v) ** 2) * self.grid.spacing))
        if n == 0.0:
            raise ValidationError("cannot normalize a zero wavefunction")
        return WaveFunction1D(self.grid, v / n, self.representation, self.conjugate_lo)

    def density(self) -> np.ndarray:
        """|psi|**2 normalized to unit integral on the grid."""
        return unit_density(np.abs(self.values) ** 2, self.grid.spacing)


def gaussian_wavefunction(grid: Grid1D, width: float, center: float = 0.0) -> WaveFunction1D:
    """Normalized Gaussian (pi*D**2)**-0.25 * exp(-(Q-c)**2 / (2*D**2))."""
    WIDTH.require(width, "width")
    q = grid.values
    vals = (np.pi * width**2) ** -0.25 * np.exp(-((q - center) ** 2) / (2 * width**2))
    return WaveFunction1D(grid, vals.astype(complex))


def exact_cache(maxsize: int):
    """`lru_cache(maxsize)` on a plain function, keyed by `_exact_key`, with its results made `_read_only`.

    So 13, 13.0 and True, or -0.0 and 0.0, never share an entry, and no caller can change another's arrays.  The
    function keeps `cache_info`, `cache_clear` and `__wrapped__`, and joins `CACHES`; a call that raises caches nothing.
    """
    @lru_cache(maxsize)
    def by_key(key: tuple, *args):  # the arguments ride along for a miss: equal keys have equal arguments
        return _read_only(cached.__wrapped__(*args))

    def cached(*args):
        return by_key(tuple([_exact_key(a) for a in args]), *args)

    cached.cache_info, cached.cache_clear = by_key.cache_info, by_key.cache_clear
    CACHES.append(cached)
    return lambda fn: update_wrapper(cached, fn)  # fn's name, module, docstring and __wrapped__


def _exact_key(value):
    """`value`'s type and bits: a float by `float.hex`, an integer or None as itself, a `Grid1D` by its fields."""
    if isinstance(value, Grid1D):
        return Grid1D, _exact_key(value.lo), _exact_key(value.hi), _exact_key(value.points)
    if not isinstance(value, (float, int, np.integer, type(None))):
        raise TypeError(f"exact_cache keys no argument of type {type(value).__name__}")
    return type(value), value.hex() if isinstance(value, float) else value


def fourier_pair(wf: WaveFunction1D) -> WaveFunction1D:
    """Unitary transform between position and momentum representations.

    Implemented as an FFT with pre/post phase factors so arbitrary (uniform)
    grid offsets are handled exactly; fourier_pair(fourier_pair(wf)) recovers
    wf on its original grid.  The factors depend on the grids alone: see `_fourier_factors`.
    """
    grid, n, forward = wf.grid, wf.grid.points, wf.representation == "position"
    x_lo = None if forward else float(wf.conjugate_lo if wf.conjugate_lo is not None else -np.pi / grid.spacing)
    out_grid, ramp, phase = _fourier_factors(grid, x_lo)
    values = phase * np.fft.fft(wf.values * ramp) if forward else phase * (np.fft.ifft(wf.values * ramp) * n)
    return WaveFunction1D(out_grid, values, "momentum" if forward else "position", conjugate_lo=grid.lo)


@exact_cache(16)  # 32 bytes a grid point an entry: 2 MB at the scenarios' 4096 points
def _fourier_factors(grid: Grid1D, x_lo: float | None) -> tuple:
    """(output grid, pre-FFT phase ramp, prefactor times output phase) of `fourier_pair` on `grid`.

    `x_lo` None transforms position to momentum, otherwise momentum to the position grid from `x_lo`.
    """
    n, x0 = grid.points, grid.lo
    if x_lo is None:
        dx = grid.spacing
        p = np.fft.fftshift(2 * np.pi * np.fft.fftfreq(n, d=dx))
        # psi_tilde(p_k) = dx/sqrt(2 pi) * exp(-i p_k x0) * FFT[psi_j * exp(-i p_min j dx)]
        ramp = np.exp(-1j * p[0] * dx * np.arange(n))
        phase = dx / np.sqrt(2 * np.pi) * np.exp(-1j * p * x0)
        return Grid1D(float(p[0]), float(p[-1]), n), ramp, phase
    # momentum -> position: psi_j = dp/sqrt(2 pi) * sum_k psi_tilde_k exp(+i p_k x_j)
    dp = grid.spacing
    x = x_lo + 2 * np.pi / (n * dp) * np.arange(n)
    ramp = np.exp(1j * grid.values * x_lo)
    phase = dp / np.sqrt(2 * np.pi) * np.exp(1j * x0 * (x - x_lo))
    return Grid1D(float(x[0]), float(x[-1]), n), ramp, phase
