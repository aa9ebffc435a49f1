"""
Radiation pattern cuts and directivity
======================================

Prints the principal-plane cuts of the circular patch as a text sketch and
shows how directivity grows with electrical size, starting from the
small-disk limit of 3 (4.77 dB).
"""

import math

from mmpatch import SubstrateSpec, directivity, pattern_cuts, synth_circ
from mmpatch.circpatch import CircPatchDesign
from mmpatch.media import wavenumber

MM = 1e-3
sub = SubstrateSpec(eps_r=2.32, h=0.8 * MM)
f0 = 39e9
design = synth_circ(f0, sub)

# --- principal-plane cuts ----------------------------------------------------
e_cut, h_cut = pattern_cuts(design, f0, step=math.radians(10))

print("theta    E-plane   H-plane   (dB relative to broadside)")
for (th, e_db), (_, h_db) in zip(e_cut, h_cut):
    bar = "#" * max(0, int(30 + e_db))
    h_txt = f"{h_db:8.2f}" if h_db > -200 else "    null"
    print(f"{math.degrees(th):6.0f} {e_db:8.2f} {h_txt}   {bar}")

# --- directivity vs electrical size -----------------------------------------
# k0 * a_eff is the electrical radius; the design above sits near 1.2.
print("\nk0*a_eff   D        D (dB)")
k0 = wavenumber(f0)
for k0a in (0.05, 0.2, 0.5, 0.8, 1.0, 1.2):
    a_eff = k0a / k0
    d = CircPatchDesign(a=a_eff, a_eff=a_eff, rho0=None, substrate=sub, f_design=f0)
    dv = directivity(d, f0)
    print(f"  {k0a:4.2f}   {dv:6.3f}   {10 * math.log10(dv):6.2f}")

print(f"\ndesigned patch: k0*a_eff = {k0 * design.a_eff:.3f}, "
      f"D = {directivity(design, f0):.3f} "
      f"({10 * math.log10(directivity(design, f0)):.2f} dB)")
