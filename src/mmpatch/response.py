"""Frequency-domain response: the resonator model, sweeps, the one mismatch
kernel (reflection magnitude, return loss, VSWR) that sweeps and scalar
callers share, and resonance/bandwidth extraction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import IO

import numpy as np

from . import circpatch, rectpatch
from .errors import DomainError
from .tables import Records, csv_text

RL_CLAMP_DB = -100.0          # keeps CSV/JSON finite on a perfect match
BANDWIDTH_CRITERION_DB = -10.0

CSV_HEADER = "f_hz,r_in_ohm,x_in_ohm,gamma_mag,rl_db,vswr"
_COLUMNS = tuple(CSV_HEADER.split(","))


def _positive(x: float) -> bool:
    return 0.0 < x < math.inf


def check_reference(z_ref: float) -> None:
    """Refuse a reference impedance that is not a finite, normal float > 0.

    Below the smallest normal float the complex division of :func:`mismatch`
    overflows and |Gamma| comes out inf or NaN.
    """
    if not sys.float_info.min <= z_ref < math.inf:
        raise DomainError(f"reference impedance must be a finite, normal float > 0, got {z_ref}")


@dataclass(frozen=True)
class SweepSpec:
    f_start: float
    f_stop: float
    points: int
    reference_impedance: float = 50.0

    def __post_init__(self) -> None:
        if not _positive(self.f_start):
            raise DomainError(f"sweep start must be finite and > 0, got {self.f_start}")
        if not self.f_start < self.f_stop < math.inf:
            raise DomainError("sweep requires f_start < f_stop, both finite")
        if self.points < 2:
            raise DomainError(f"sweep needs at least 2 points, got {self.points}")
        check_reference(self.reference_impedance)


@dataclass(frozen=True)
class ResonatorModel:
    """Single-resonator description consumed by the sweep engine.

    Off resonance the input impedance follows a parallel-RLC law,
    Z(f) = r_res / (1 + j q_total nu) with nu = f/f_res - f_res/f.
    """

    f_res: float
    r_res: float
    q_total: float

    def __post_init__(self) -> None:
        if not _positive(self.f_res):
            raise DomainError("resonant frequency must be finite and > 0")
        if not _positive(self.r_res):
            raise DomainError("resonant resistance must be finite and > 0")
        if not _positive(self.q_total):
            raise DomainError("quality factor must be finite and > 0")


@dataclass(frozen=True)
class FrequencyResponse:
    """Ordered sweep samples; arrays share one frequency grid."""

    f_hz: np.ndarray
    r_in_ohm: np.ndarray
    x_in_ohm: np.ndarray
    gamma_mag: np.ndarray
    rl_db: np.ndarray
    vswr: np.ndarray
    reference_impedance: float = 50.0

    def _records(self) -> Records:
        return Records(_COLUMNS, tuple(getattr(self, name) for name in _COLUMNS))

    def write_csv(self, stream: IO[str]) -> None:
        stream.write(csv_text(self._records()))

    def to_json_dict(self) -> dict:
        """The reference impedance and the samples as column :class:`Records`,
        for :func:`mmpatch.tables.json_text`."""
        return {"reference_impedance": self.reference_impedance, "samples": self._records()}


@dataclass(frozen=True)
class ResonanceReport:
    f_res: float
    rl_min_db: float
    vswr_at_res: float
    bandwidth_hz: float
    q_loaded: float | None
    notes: tuple[str, ...] = ()


def mismatch(z, z_ref: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|Gamma|, return loss (dB) and VSWR of impedance z, a real or complex
    scalar or array, against a real reference z_ref.

    |Gamma| is capped at 1, its bound for Re z >= 0, against rounding on
    near-reactive loads. The return loss is floored at RL_CLAMP_DB, so a
    perfect match reads exactly -100 dB, and the VSWR is +inf at total
    reflection. z_ref must be a finite, positive, normal float.
    """
    check_reference(z_ref)
    # numpy arithmetic for scalars too; a real z stays real, since real
    # division is exact where numpy's complex division may be off by an ulp
    z = np.asarray(z)
    gmag = np.minimum(np.abs((z - z_ref) / (z + z_ref)), 1.0)
    floor = 10.0 ** (RL_CLAMP_DB / 20.0)
    rl = 20.0 * np.log10(np.maximum(gmag, floor))
    with np.errstate(divide="ignore"):
        vs = np.where(gmag < 1.0, (1.0 + gmag) / (1.0 - gmag), np.inf)
    return gmag, rl, vs


def rect_resonator(
    design: rectpatch.RectPatchDesign, variant: str, t1_form: str = "printed"
) -> ResonatorModel:
    """RLC stand-in for a rectangular design: resonance at the design
    frequency, resistance from the feed-inset analysis (surface-wave term
    from ``t1_form``), Q from the radiation quality factor."""
    f0 = design.f_design
    r_res, q = rectpatch.resonator_terms_rect(design, f0, variant, t1_form)
    return ResonatorModel(f_res=f0, r_res=r_res, q_total=q)


def circ_resonator(design: circpatch.CircPatchDesign,
                   t1_form: str = "printed") -> ResonatorModel:
    """RLC stand-in for a circular design: resonance from the effective
    radius, resistance at the design's feed radius (total basis), Q from the
    energy budget."""
    f_res = circpatch.resonant_frequency(design.a_eff, design.substrate, fringing=False)
    r_res, q = circpatch.resonator_terms_circ(design, f_res, t1_form)
    return ResonatorModel(f_res=f_res, r_res=r_res, q_total=q)


def sweep(model: ResonatorModel, spec: SweepSpec) -> FrequencyResponse:
    """Uniform-grid frequency sweep; fully vectorized, hence deterministic."""
    f = np.linspace(spec.f_start, spec.f_stop, spec.points)
    nu = f / model.f_res - model.f_res / f
    z = model.r_res / (1.0 + 1j * model.q_total * nu)
    gmag, rl, vs = mismatch(z, spec.reference_impedance)
    return FrequencyResponse(
        f_hz=f, r_in_ohm=z.real, x_in_ohm=z.imag, gamma_mag=gmag,
        rl_db=rl, vswr=vs, reference_impedance=spec.reference_impedance,
    )


def _parabolic_vertex(f: np.ndarray, y: np.ndarray, i: int) -> float:
    # Vertex of the parabola through samples i-1, i, i+1; falls back to the
    # sample frequency when the three points are degenerate.
    y0, y1, y2 = y[i - 1 : i + 2].tolist()
    denom = y0 - 2.0 * y1 + y2
    if denom <= 0.0:
        return float(f[i])
    shift = 0.5 * (y0 - y2) / denom
    step = float(f[i + 1] - f[i])
    return float(f[i]) + shift * step


def _crossing(f: np.ndarray, rl: np.ndarray, below: int, above: int, thr: float) -> float:
    # Threshold crossing between a sample at or below thr and its neighbour
    # above it, by linear interpolation from the neighbour's side.
    f_b, f_a, r_b, r_a = f.item(below), f.item(above), rl.item(below), rl.item(above)
    return f_a + (thr - r_a) / (r_b - r_a) * (f_b - f_a)


def extract_resonance(resp: FrequencyResponse) -> ResonanceReport:
    """Locate the return-loss minimum and the -10 dB bandwidth around it.

    The reported minimum depth and VSWR are sample values; the resonance
    frequency is refined with a three-point parabola. Band edges between
    samples are linearly interpolated. Notes flag minima at the sweep
    boundary and bands truncated by it; a truncated band gives no loaded Q,
    since its width is the sweep window's, not the resonance's.
    """
    f = np.asarray(resp.f_hz)
    rl = np.asarray(resp.rl_db)
    n = len(f)
    i_min = int(np.argmin(rl))
    notes: list[str] = []
    q_loaded = None
    if i_min in (0, n - 1):
        notes.append("rl-min-at-sweep-edge")
        f_res = float(f[i_min])
    else:
        f_res = _parabolic_vertex(f, rl, i_min)
        f_res = min(max(f_res, float(f[0])), float(f[-1]))

    thr = BANDWIDTH_CRITERION_DB
    if rl[i_min] > thr:
        notes.append("no-sample-below-threshold")
        bandwidth = 0.0
    else:
        # The band is the run of samples at or below the threshold around
        # i_min; its edges sit next to the nearest samples that are not.
        above = np.flatnonzero(~(rl <= thr))
        k_lo = int(np.searchsorted(above, i_min, side="left"))
        k_hi = int(np.searchsorted(above, i_min, side="right"))
        lo = int(above[k_lo - 1]) + 1 if k_lo > 0 else 0
        hi = int(above[k_hi]) - 1 if k_hi < len(above) else n - 1
        if lo == 0:
            f_lo = float(f[0])
            notes.append("band-truncated-at-sweep-start")
        else:
            f_lo = _crossing(f, rl, lo, lo - 1, thr)
        if hi == n - 1:
            f_hi = float(f[-1])
            notes.append("band-truncated-at-sweep-stop")
        else:
            f_hi = _crossing(f, rl, hi, hi + 1, thr)
        bandwidth = f_hi - f_lo
        if 0 < lo and hi < n - 1 and bandwidth > 0.0:
            q_loaded = f_res / bandwidth

    return ResonanceReport(
        f_res=f_res,
        rl_min_db=float(rl[i_min]),
        vswr_at_res=float(resp.vswr[i_min]),
        bandwidth_hz=bandwidth,
        q_loaded=q_loaded,
        notes=tuple(notes),
    )
