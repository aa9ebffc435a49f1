"""Frequency-domain response: the resonator model, sweeps, the one mismatch
kernel (reflection magnitude, return loss, VSWR) that sweeps and scalar
callers share, and resonance/bandwidth extraction.

A sweep is a few in-place numpy passes over one grid that equals
``np.linspace`` bit for bit; at the usual few hundred points its cost is the
fixed cost of each numpy call, so every pass here is one call and no pass is
computed and then discarded. The band search works on array methods and
Python scalars.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass
from typing import IO

import numpy as np

from . import circpatch, rectpatch
from .errors import DomainError
from .tables import Records, csv_text

RL_CLAMP_DB = -100.0          # keeps CSV/JSON finite on a perfect match
_GAMMA_FLOOR = 10.0 ** (RL_CLAMP_DB / 20.0)
# Below this, r_res + z_ref keeps every term of numpy's complex division
# (z - z_ref) / (z + z_ref) finite over a sweep, since |z| <= r_res.
_HALF_MAX = sys.float_info.max / 2.0
_NO_GUARD = contextlib.nullcontext()  # reusable; sweep's errstate stand-in
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
        # a float, str or bool count is refused before the grid sees it:
        # np.arange(401.5) would silently give 402 samples
        if isinstance(self.points, bool) or not isinstance(self.points, (int, np.integer)):
            raise DomainError(f"sweep points must be an integer, got {self.points!r}")
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
    reflection (and for a NaN |Gamma|). z_ref must be a finite, positive,
    normal float. A scalar z gives three ``np.float64``; an array z gives
    three float arrays of its shape.

    Where |z| + z_ref reaches half the largest float, z + z_ref would
    overflow and read as a perfect match; |Gamma| is scale-free, so such a
    z is taken at a quarter of its size, and of z_ref's. An infinite z
    (either part infinite) is the open circuit: |Gamma| 1, RL 0 dB and VSWR
    +inf, its limit from every direction.
    """
    check_reference(z_ref)
    z = np.asarray(z)
    big = np.abs(z) >= _HALF_MAX - z_ref
    if big.any():
        scale = np.where(big, 4.0, 1.0)
        # inf / inf would give a NaN |Gamma|: an open circuit is taken as
        # z = 1 against a zero reference, whose Gamma is exactly 1
        open_circuit = np.isinf(z)
        return _mismatch(np.where(open_circuit, 1.0, z) / scale,
                         np.where(open_circuit, 0.0, z_ref / scale).ravel())
    return _mismatch(z, z_ref)


def _mismatch(z: np.ndarray, z_ref) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The one |Gamma| pass, for |z| + z_ref below half the largest float
    # (z_ref: a float or one per element of z), over z raveled to 1-d. A real
    # z stays real: real division is exact where complex may be an ulp off.
    shape = z.shape
    z = z.ravel()
    g = z - z_ref
    g /= z + z_ref
    gmag = np.abs(g)
    np.minimum(gmag, 1.0, out=gmag)
    rl = np.maximum(gmag, _GAMMA_FLOOR)
    np.log10(rl, out=rl)
    rl *= 20.0
    vs = np.empty_like(gmag)
    vs.fill(np.inf)
    np.divide(1.0 + gmag, 1.0 - gmag, out=vs, where=gmag < 1.0)
    return gmag.reshape(shape)[()], rl.reshape(shape)[()], vs.reshape(shape)[()]


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
    """Uniform-grid frequency sweep; fully vectorized, hence deterministic.

    The float64 grid is the one ``np.linspace(f_start, f_stop, points)``
    builds, formed as linspace forms it (``arange * step + f_start``, last
    sample set to ``f_stop``); a step that underflows to zero takes
    ``np.linspace`` itself, which divides first (numpy gh-5437). Nu and the
    RLC impedance are formed in place, and the pass of :func:`mismatch`
    gives |Gamma|, the return loss and the VSWR; |z| <= r_res, so the
    second check below is its overflow rule.

    Two scalar checks refuse, with :class:`DomainError`, a model and spec
    that would give NaN samples: a detuning that overflows (``f_res /
    f_start`` or ``f_stop / f_res`` not finite), and ``r_res`` plus the
    reference impedance at or above half the largest float, where the
    complex division of the reflection overflows.

    Two overflows give the right samples and are let through without a
    warning: ``q_total * nu`` past the largest float (the reactance reads
    inf and z its limit 0), and the last grid sample's ``k * step``, which
    is then set to ``f_stop``. Both are bounded by scalars first, and only
    a sweep where one can happen (or with ``f_stop`` at half the largest
    float or above) runs under ``np.errstate``.
    """
    f_start, f_stop, f_res = float(spec.f_start), float(spec.f_stop), float(model.f_res)
    down, up = f_res / f_start, f_stop / f_res
    if not (down < math.inf and up < math.inf):
        raise DomainError(
            f"sweep detuning overflows: f_res {f_res} against [{f_start}, {f_stop}]")
    if not model.r_res + spec.reference_impedance < _HALF_MAX:
        raise DomainError("sweep reflection overflows: r_res + reference impedance "
                          f"must be below {_HALF_MAX}")
    n = spec.points
    step = (f_stop - f_start) / (n - 1)
    # In monotone rounding |nu| <= max(down, up), so the Python float
    # product below (which overflows quietly) bounds every q_total * nu; and
    # k * step + f_start stays within a few ulps of f_stop.
    q = float(model.q_total)
    overflows = not (q * (down if down > up else up) < math.inf and f_stop < _HALF_MAX)
    with np.errstate(over="ignore") if overflows else _NO_GUARD:
        if step == 0.0:
            f = np.linspace(f_start, f_stop, n)
        else:
            f = np.arange(n, dtype=float)
            f *= step
            f += f_start
            f[-1] = f_stop
        nu = f / f_res
        nu -= f_res / f
        z = 1j * q * nu
    z += 1.0
    np.divide(model.r_res, z, out=z)
    gmag, rl, vs = _mismatch(z, spec.reference_impedance)
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
        return f.item(i)
    shift = 0.5 * (y0 - y2) / denom
    step = f.item(i + 1) - f.item(i)
    return f.item(i) + shift * step


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
    i_min = int(rl.argmin())
    rl_min = rl.item(i_min)
    notes: list[str] = []
    q_loaded = None
    if i_min in (0, n - 1):
        notes.append("rl-min-at-sweep-edge")
        f_res = f.item(i_min)
    else:
        f_res = _parabolic_vertex(f, rl, i_min)
        f_res = min(max(f_res, f.item(0)), f.item(-1))

    thr = BANDWIDTH_CRITERION_DB
    if rl_min > thr:
        notes.append("no-sample-below-threshold")
        bandwidth = 0.0
    else:
        # The band is the run of samples at or below the threshold around
        # i_min; its edges sit next to the nearest samples that are not.
        above = (~(rl <= thr)).nonzero()[0]
        k_lo = int(above.searchsorted(i_min, side="left"))
        k_hi = int(above.searchsorted(i_min, side="right"))
        lo = above.item(k_lo - 1) + 1 if k_lo > 0 else 0
        hi = above.item(k_hi) - 1 if k_hi < len(above) else n - 1
        if lo == 0:
            f_lo = f.item(0)
            notes.append("band-truncated-at-sweep-start")
        else:
            f_lo = _crossing(f, rl, lo, lo - 1, thr)
        if hi == n - 1:
            f_hi = f.item(-1)
            notes.append("band-truncated-at-sweep-stop")
        else:
            f_hi = _crossing(f, rl, hi, hi + 1, thr)
        bandwidth = f_hi - f_lo
        if 0 < lo and hi < n - 1 and bandwidth > 0.0:
            q_loaded = f_res / bandwidth

    return ResonanceReport(
        f_res=f_res,
        rl_min_db=rl_min,
        vswr_at_res=float(resp.vswr[i_min]),
        bandwidth_hz=bandwidth,
        q_loaded=q_loaded,
        notes=tuple(notes),
    )
