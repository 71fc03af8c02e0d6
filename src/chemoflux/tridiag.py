"""Thomas solver: the reference that the FFT diffusion solve in
``stepping`` is checked against.

Solves A x = rhs where A is tridiagonal,

        | d0 u0            |
        | l0 d1 u1         |
    A = |    l1 d2 u2      |
        |       .. .. ..   |
        |          ln-2 dn-1 |

by plain sequential forward elimination and back substitution, without
pivoting.  The backward-Euler diffusion matrices are diagonally dominant
(1 + 2*lam on the diagonal, -lam off it, or identity rows), for which the
elimination is unconditionally stable; the dominance of a given system is
recorded on construction so callers can tell when that guarantee applies.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["TridiagonalSystem", "SingularPivotError", "solve_tridiagonal"]

PIVOT_TOL = 1e-30


class SingularPivotError(ValueError):
    """Forward elimination met a vanishing pivot at `index`."""

    def __init__(self, index: int):
        self.index = int(index)
        super().__init__(
            f"elimination pivot vanished at row {self.index} (|pivot| < {PIVOT_TOL:g})"
        )


@dataclass(frozen=True)
class TridiagonalSystem:
    """One tridiagonal system.  lower/upper have length n-1, diag/rhs length n.

    `diagonally_dominant` records weak row dominance |d_i| >= |l_{i-1}| + |u_i|.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray
    diagonally_dominant: bool = field(init=False)

    def __post_init__(self):
        for name in ("lower", "diag", "upper", "rhs"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
        n = self.diag.shape[0]
        if n < 1 or self.diag.ndim != 1:
            raise ValueError("diag must be a 1-d array of length >= 1")
        if self.rhs.shape != (n,):
            raise ValueError(f"rhs must have length {n}, got {self.rhs.shape}")
        if self.lower.shape != (n - 1,) or self.upper.shape != (n - 1,):
            raise ValueError(
                f"lower/upper must have length {n - 1}, got "
                f"{self.lower.shape}/{self.upper.shape}"
            )
        for name in ("lower", "diag", "upper", "rhs"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite entries in {name}")
        off = np.zeros(n)
        off[1:] += np.abs(self.lower)
        off[:-1] += np.abs(self.upper)
        dom = bool(np.all(np.abs(self.diag) >= off))
        object.__setattr__(self, "diagonally_dominant", dom)

    @property
    def n(self) -> int:
        return self.diag.shape[0]


def _thomas_py(lower, diag, upper, rhs):
    """Sequential elimination.  Returns (x, bad_row); bad_row = -1 on success."""
    n = diag.shape[0]
    c = np.empty(n - 1) if n > 1 else np.empty(0)
    d = np.empty(n)
    x = np.empty(n)
    piv = diag[0]
    if abs(piv) < PIVOT_TOL:
        return x, 0
    d[0] = rhs[0] / piv
    for i in range(1, n):
        c[i - 1] = upper[i - 1] / piv
        piv = diag[i] - lower[i - 1] * c[i - 1]
        if abs(piv) < PIVOT_TOL:
            return x, i
        d[i] = (rhs[i] - lower[i - 1] * d[i - 1]) / piv
    x[n - 1] = d[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x, -1


def solve_tridiagonal(system: TridiagonalSystem) -> np.ndarray:
    """Solve the system; deterministic (same bits for same input).

    Raises SingularPivotError with the failing row when a pivot magnitude
    drops below PIVOT_TOL.
    """
    x, bad = _thomas_py(system.lower, system.diag, system.upper, system.rhs)
    if bad >= 0:
        raise SingularPivotError(bad)
    return x
