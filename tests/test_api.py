"""The package's public surface and its module boundaries."""

import ast
import re
import types
from pathlib import Path

import mmpatch

SRC = Path(mmpatch.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# Adding or removing a public name is a deliberate change: update this list
# and say so in CHANGES.md and the README.
PUBLIC_NAMES = [
    "Bracket", "BracketError", "CircLossReport", "CircPatchDesign", "ConfigError",
    "ConvergenceError", "DomainError", "FrequencyResponse", "ModelRangeError",
    "PatchModelError", "RectDerived", "RectPatchDesign", "Regime", "RegimeReport",
    "ResistanceBreakdown", "ResonanceReport", "ResonatorModel", "SingularFeedError",
    "SubstrateSpec", "SweepSpec", "SynthesisError", "analyze_rect", "bessel_j",
    "bessel_j_prime", "circ_design_from_radius", "circ_resonator", "directivity",
    "effective_radius", "efficiency", "eps_effective", "extract_resonance",
    "far_fields", "feed_radius_for_match", "find_root_bracketed",
    "free_space_wavelength", "gain", "input_resistance_circ", "input_resistance_rect",
    "jprime_first_root", "loss_report", "mismatch", "pattern_cut", "pattern_cuts",
    "rect_resonator", "resonant_frequency", "resonant_radius", "surface_wave_factor",
    "sweep", "synth_circ", "synth_rect", "thickness_regime", "wavenumber",
]


def test_public_names_are_pinned():
    # submodules become package attributes once imported, so they are left out
    names = sorted(name for name, value in vars(mmpatch).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


def _imported_modules(path: Path) -> set[str]:
    # every module an import statement names, as "mmpatch.x" for relative ones
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ("mmpatch." if node.level else "") + (node.module or "")
            found.add(base.rstrip("."))
            found.update(f"{base.rstrip('.')}.{alias.name}" for alias in node.names)
    return found


def test_circular_model_does_not_import_the_rectangular_one():
    imported = _imported_modules(SRC / "circpatch.py")
    assert "mmpatch.media" in imported
    assert not any(name == "mmpatch.rectpatch" or name.startswith("mmpatch.rectpatch.")
                   for name in imported)


def test_every_public_function_and_class_has_a_caller():
    # a public name that only its own def, the package re-export and the
    # tests mention is a second route to a quantity nobody reads: delete it
    texts = [path.read_text(encoding="utf-8")
             for folder in ("src", "demos", "tools", "bench")
             for path in sorted((ROOT / folder).rglob("*.py"))
             if path != SRC / "__init__.py"]
    uncalled = []
    for module in sorted(SRC.glob("*.py")):
        for node in ast.parse(module.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            named = re.compile(rf"\b{node.name}\b")
            defined = re.compile(rf"^\s*(?:def|class)\s+{node.name}\b", re.MULTILINE)
            if not any(len(named.findall(text)) > len(defined.findall(text)) for text in texts):
                uncalled.append(f"{module.stem}.{node.name}")
    assert uncalled == []
