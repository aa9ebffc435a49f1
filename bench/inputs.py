"""Seeded input decks for the three benchmark workloads.

Standard library only, so a set-up probe can import this module before it
starts its clock and before ``mmpatch`` is imported.

Every deck is drawn from ``random.Random(seed)``. Inputs that drive the
cost of a job are spread evenly instead of drawn independently: design
frequencies are stratified (each of ``n`` jobs takes one random point from
its own 1/n-wide slice of the band), sweep lengths come from a few fixed
size classes, and the command mix has fixed counts. Two seeds therefore give different
laminates, frequencies and job orders with nearly the same cost
distribution, which keeps the latency percentiles steady from seed to seed.

Validity envelope: every design keeps K1*h <= 1.2 (well clear of the
1/cos^2(K1 h) pole of the surface-wave factor at pi/2), and circular
designs keep k0*a_eff <= 1.8, where the radiated-power series starts to
warn. Designers work inside the model's stated range, so inputs outside it
are not drawn.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

C0 = 2.99792458e8
J1P_FIRST_ROOT = 1.8411837813406593

EPS_R = (2.2, 2.33, 3.0, 3.38, 3.55, 4.4, 6.15, 10.2)
H_MM = (0.127, 0.254, 0.508, 0.787, 1.524)
F_MIN_GHZ, F_MAX_GHZ = 20.0, 80.0
K1H_MAX = 1.2
K0A_MAX = 1.8

RECT_VARIANTS = ("eq8-literal", "calibrated")
CIRC_SWEEP_POINTS = 401
PATTERN_STEP_DEG = 1.0
STUDY_DESIGNS = 32
STUDY_BAND_RATIO = 1.5
SWEEP_POINTS_CLASSES = (2001, 5001, 10001, 20001)
PATTERN_STEPS_DEG = (0.1, 0.25, 0.5)

# Deck sizes: (full run, --quick).
DECK_SIZES = {
    "circ-design-scan": (20, 3),
    "rect-design-scan": (66, 3),
    "cli-export": (20, 6),
}

WORKLOAD_WHY = {
    "circ-design-scan": "circular design end to end; nearly all time is scalar-Bessel "
                        "quadrature in specfun and circpatch",
    "rect-design-scan": "rectangular laminate studies; no Bessel calls, time in rectpatch "
                        "formulas and small response sweeps (bypass for circpatch work)",
    "cli-export": "in-process cli.main on seeded configs; time in cli and large "
                  "response serialization to JSON and CSV",
}


def k1h(eps_r: float, h_mm: float, f_ghz: float) -> float:
    """Surface-wave wavenumber times thickness, K1*h (dimensionless)."""
    h = h_mm * 1e-3
    k0 = 2.0 * math.pi * f_ghz * 1e9 / C0
    num = -eps_r * eps_r + eps_r * math.sqrt(
        eps_r * eps_r + 4.0 * k0 * k0 * h * h * (eps_r - 1.0))
    return math.sqrt(max(num, 0.0) / 2.0)


def in_envelope(eps_r: float, h_mm: float, f_ghz: float, circular: bool) -> bool:
    if k1h(eps_r, h_mm, f_ghz) > K1H_MAX:
        return False
    # A synthesized disk resonates at f, so k0*a_eff = 1.8412 / sqrt(eps_r).
    return not circular or J1P_FIRST_ROOT / math.sqrt(eps_r) <= K0A_MAX


def f_cap_ghz(eps_r: float, h_mm: float) -> float:
    """Highest frequency in [F_MIN, F_MAX] inside the K1*h envelope
    (K1*h grows monotonically with f)."""
    lo, hi = F_MIN_GHZ, F_MAX_GHZ
    if k1h(eps_r, h_mm, hi) <= K1H_MAX:
        return hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if k1h(eps_r, h_mm, mid) <= K1H_MAX:
            lo = mid
        else:
            hi = mid
    return lo


def stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n values, one uniform draw per equal slice of [lo, hi], in random order."""
    values = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


def laminate_at(rng: random.Random, f_ghz: float, circular: bool) -> tuple[float, float]:
    choices = [(e, h) for e in EPS_R for h in H_MM if in_envelope(e, h, f_ghz, circular)]
    return rng.choice(choices)


def circ_deck(rng: random.Random, n: int) -> list[dict]:
    deck = []
    for f_ghz in stratified(rng, n, F_MIN_GHZ, F_MAX_GHZ):
        eps_r, h_mm = laminate_at(rng, f_ghz, circular=True)
        deck.append({"eps_r": eps_r, "h_mm": h_mm, "f_ghz": f_ghz})
    return deck


def rect_deck(rng: random.Random, n: int) -> list[dict]:
    """Studies on every laminate that fits a whole band inside the envelope,
    each equally often (a study's cost depends mostly on its laminate: thick,
    low-permittivity ones have the widest resonances and cost the most), at
    stratified positions of the band's lower edge."""
    laminates = [(e, h) for e in EPS_R for h in H_MM
                 if f_cap_ghz(e, h) >= STUDY_BAND_RATIO * F_MIN_GHZ]
    rng.shuffle(laminates)
    rounds = math.ceil(n / len(laminates))
    deck = []
    for k in range(n):
        eps_r, h_mm = laminates[k % len(laminates)]
        u = (k // len(laminates) + rng.random()) / rounds
        f_lo = F_MIN_GHZ + u * (f_cap_ghz(eps_r, h_mm) / STUDY_BAND_RATIO - F_MIN_GHZ)
        freqs = sorted(stratified(rng, STUDY_DESIGNS, f_lo, STUDY_BAND_RATIO * f_lo))
        designs = [
            {"f_ghz": f, "inset_frac": rng.uniform(0.0, 0.3),
             "variant": rng.choice(RECT_VARIANTS)}
            for f in freqs
        ]
        deck.append({"eps_r": eps_r, "h_mm": h_mm, "designs": designs})
    rng.shuffle(deck)
    return deck


def _config_text(geometry: str, eps_r: float, h_mm: float, f_ghz: float,
                 extra: dict) -> str:
    lines = [f"geometry = {geometry}", f"f_ghz = {f_ghz!r}",
             f"substrate.eps_r = {eps_r!r}", f"substrate.h_mm = {h_mm!r}"]
    lines += [f"{key} = {value}" for key, value in extra.items()]
    return "\n".join(lines) + "\n"


def cli_deck(rng: random.Random, n: int) -> list[dict]:
    """Command mix with fixed counts: 40 % rect sweeps (every size class and
    format equally often), 30 % circular pattern cuts (every step/format
    pair equally often) and 30 % rect design/analyze reports."""
    n_sweep = round(0.4 * n)
    n_pattern = round(0.3 * n)
    n_report = n - n_sweep - n_pattern
    specs: list[tuple[str, str, dict, bool]] = []
    sweeps = [(p, f) for p in SWEEP_POINTS_CLASSES for f in ("json", "csv")]
    for k in range(n_sweep):
        points, fmt = sweeps[k % len(sweeps)]
        specs.append(("sweep", fmt, {"sweep.points": points}, False))
    pairs = [(s, f) for s in PATTERN_STEPS_DEG for f in ("json", "csv")]
    for k in range(n_pattern):
        step, fmt = pairs[k % len(pairs)]
        specs.append(("pattern", fmt, {"pattern.step_deg": step}, True))
    for _ in range(n_report):
        specs.append((rng.choice(("design", "analyze")), rng.choice(("json", "csv")), {}, False))
    rng.shuffle(specs)

    deck = []
    for f_ghz, (command, fmt, extra, circular) in zip(
            stratified(rng, len(specs), F_MIN_GHZ, F_MAX_GHZ), specs):
        eps_r, h_mm = laminate_at(rng, f_ghz, circular)
        if not circular:
            extra = {"variant": rng.choice(RECT_VARIANTS), **extra}
        deck.append({
            "command": command, "format": fmt,
            "config": _config_text("circ" if circular else "rect", eps_r, h_mm, f_ghz, extra),
            **extra,
        })
    return deck


_DECKS = {"circ-design-scan": circ_deck, "rect-design-scan": rect_deck, "cli-export": cli_deck}


def build(workload: str, seed: int, quick: bool = False) -> list[dict]:
    """The deck of job inputs for ``workload``; identical for identical seeds."""
    n = DECK_SIZES[workload][1 if quick else 0]
    return _DECKS[workload](random.Random(seed), n)


def write_configs(deck: list[dict], workdir: str) -> list[str]:
    """Write each cli-export job's config file; returns their paths."""
    paths = []
    for i, job in enumerate(deck):
        path = os.path.join(workdir, f"job{i:03d}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(job["config"])
        paths.append(path)
    return paths


def digest(deck: list[dict]) -> str:
    """Short fingerprint of a deck, printed so equal seeds can be shown to
    give identical inputs."""
    blob = json.dumps(deck, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
