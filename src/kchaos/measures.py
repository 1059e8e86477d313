"""Chaos quantifiers: level-spacing ratio statistics and the moving-average
dispersion of a Lanczos sequence, plus the normalization that maps arbitrary
diagnostic curves onto the spectral chaos scale."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError

# Reference values of the mean consecutive-spacing ratio for Poisson
# statistics and for the Gaussian orthogonal ensemble.
MEAN_R_POISSON = 0.38629
MEAN_R_GOE = 0.53590


@dataclass(frozen=True)
class DispersionConfig:
    """Window settings for the moving-average dispersion.

    ``w_frac`` is the window half-width as a fraction of the sequence length;
    ``n0_frac`` sets where the dispersion sum starts, skipping the initial
    ramp of a Lanczos sequence.
    """

    w_frac: float = 0.025
    n0_frac: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.w_frac < 0.5:
            raise ValueError(f"w_frac must be in (0, 0.5), got {self.w_frac}")
        if not 0.0 <= self.n0_frac < 1.0:
            raise ValueError(f"n0_frac must be in [0, 1), got {self.n0_frac}")


def r_ratio_mean(eigenvalues: np.ndarray) -> float:
    """Mean ratio of consecutive level spacings, min(s)/max(s) convention.

    Averages over the D-2 well-defined interior ratios.  Expected values:
    ~0.38629 for Poisson spectra, ~0.53590 for GOE.
    """
    e = np.asarray(eigenvalues, dtype=float)
    if e.ndim != 1 or e.shape[0] < 3:
        raise ValueError("need a 1-D spectrum with at least 3 levels")
    s = np.diff(e)
    if np.any(s <= 0):
        raise DegenerateSpectrumError("spectrum has a repeated (or unsorted) eigenvalue")
    ratios = np.minimum(s[1:], s[:-1]) / np.maximum(s[1:], s[:-1])
    return float(ratios.mean())


def eta(r_mean: float) -> float:
    """Affine rescaling of the mean spacing ratio: 0 = Poisson, 1 = GOE."""
    return (r_mean - MEAN_R_POISSON) / (MEAN_R_GOE - MEAN_R_POISSON)


def sigma_moving(s: np.ndarray, cfg: DispersionConfig = DispersionConfig()) -> float:
    """RMS deviation of a sequence from its centered moving average.

    The moving average runs over the full symmetric window [n-w, n+w]
    (2w+1 points, w = round(w_frac * len)); deviations are collected from
    n0 = max(round(n0_frac * len), w) up to the last index where the window
    still fits.  A sequence too short for that (w < 1, or no index in
    [n0, len-1-w]) has no dispersion: the result is nan.
    """
    s = np.asarray(s, dtype=float)
    n_seq = s.shape[0]
    w = int(round(cfg.w_frac * n_seq))
    n0 = max(int(round(cfg.n0_frac * n_seq)), w)
    last = n_seq - 1 - w
    if w < 1 or n0 > last:
        return float("nan")
    kernel = np.ones(2 * w + 1) / (2 * w + 1)
    smoothed = np.convolve(s, kernel, mode="valid")  # index n-w of s maps to n
    centers = np.arange(w, n_seq - w)
    deviations = s[centers] - smoothed
    window = (centers >= n0) & (centers <= last)
    return float(np.sqrt(np.mean(deviations[window] ** 2)))


def normalize_to_eta(x: np.ndarray, eta_ref: np.ndarray) -> np.ndarray:
    """Map a diagnostic curve onto the scale of an eta curve.

    Rescales x to the eta range and shifts by the constant that minimizes
    the Euclidean distance to eta (the mean residual).  Exactly invariant
    under positive affine transformations of x.
    """
    x = np.asarray(x, dtype=float)
    eta_ref = np.asarray(eta_ref, dtype=float)
    if x.shape != eta_ref.shape or x.shape[0] < 2:
        raise ValueError("x and eta_ref must be equal-length vectors of length >= 2")
    x_range = x.max() - x.min()
    if x_range == 0:
        raise ValueError("cannot normalize a constant sequence")
    scaled = x * (eta_ref.max() - eta_ref.min()) / x_range
    return scaled - np.mean(scaled - eta_ref)
