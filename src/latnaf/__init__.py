"""Window non-adjacent digit systems over lattices with an expanding base.

The package builds digit sets for an expanding endomorphism of Z^n (or an
algebraic integer given by its minimal polynomial), computes width-w
non-adjacent expansions, decides whether every lattice point has one, and
checks the expansions' Hamming weight against an independent oracle.

``import latnaf`` loads no submodule: each public name, and each
submodule, is imported on first access (PEP 562), so a caller pays only
for the modules it uses.
"""

import sys

_EXPORTS = {
    "digitset": (
        "FAMILY_CUSTOM",
        "FAMILY_INTERVAL",
        "FAMILY_MINIMAL_NORM",
        "DigitSet",
        "NormContext",
        "build_minimal_norm",
        "build_rational_interval",
        "digit_count",
        "from_digits",
        "geometry",
    ),
    "errors": (
        "BallSizeError",
        "ConsistencyError",
        "InstanceError",
        "LatnafError",
        "MalformedDigitSetError",
        "NotExpandingError",
        "PrecisionCapError",
    ),
    "expansion": (
        "CycleReport",
        "Expansion",
        "digit_of",
        "expand",
        "is_window_form",
        "is_wnaf",
        "step",
        "value",
        "word_weight",
    ),
    "lattice": ("LatticeInstance", "char_poly", "is_expanding", "residue_system"),
    "nadscheck": (
        "CERT_MINIMAL_NORM",
        "CERT_TILING",
        "STATUS_CERTIFIED",
        "STATUS_COUNTEREXAMPLE",
        "STATUS_SEARCH",
        "NadsVerdict",
        "certify",
        "decide",
        "invariant_ball_bound",
        "search",
    ),
    "numberfield": ("NumberFieldInstance", "build", "embedding_moduli_sq", "is_expanding_base"),
    "optimality": (
        "OptimalityCertificate",
        "VerifyReport",
        "check_hypotheses",
        "min_weight_oracle",
        "verify_empirically",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    # not cached here: the defining module's attribute is read on every
    # access, so whatever rebinds it (a tracer, a test's monkeypatch) is
    # what the package hands out. The first load goes through __import__,
    # not importlib, so that -X importtime still lists each submodule.
    module = f"{__name__}.{_HOME.get(name, name)}"
    if module not in sys.modules:
        try:
            __import__(module)
        except ModuleNotFoundError as exc:
            if exc.name != module:
                raise
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(sys.modules[module], name) if name in _HOME else sys.modules[module]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
