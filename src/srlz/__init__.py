"""Successive-refinement and two-description LZ coding for individual
sequences, with the finite-state converse bounds and their verification
suites.

The public surface groups as:

- sequences and plain LZ: `Alphabet`, `Sequence`, `parse`, `rho_lz`,
  `lz_encode`, `lz_decode`, `product_sequence`
- conditional LZ: `joint_parse`, `rho_cond`, `cond_encode`, `cond_decode`
- two-stage refinement: `sr_encode`, `sr_decode_stage1`, `sr_decode_full`,
  `select_reproductions`, `hamming_spec`
- two descriptions: `egc_encode`/`zb_encode` and their decoders,
  `md_outer_region`, `split_rates`
- bounds and regions: `region_for_pair`, `blockwise_region`,
  `sr_outer_region`, `frontier`
- verification: `srlz.verify.SUITES`, `srlz.fsm`, `srlz.empirics`
"""

import importlib

# Public name -> the submodule that defines it.  Nothing is imported until a
# name is first read (PEP 562), so `import srlz` or `srlz.cli` loads only the
# submodules a caller uses.
_ORIGIN = {
    **dict.fromkeys(("cond_decode", "cond_encode", "joint_parse", "rho_cond"), "cond_lz"),
    **dict.fromkeys(("BudgetExceededError", "InfeasibleError", "ModeMismatchError",
                     "PointerRangeError", "SideInfoMismatchError", "StreamFormatError",
                     "TruncatedStreamError"), "container"),
    **dict.fromkeys(("Alphabet", "Sequence", "lz_decode", "lz_encode", "parse",
                     "product_sequence", "rho_lz"), "lz_core"),
    **dict.fromkeys(("egc_decode0", "egc_decode1", "egc_decode2", "egc_encode",
                     "md_outer_region", "split_rates", "zb_decode0", "zb_decode1",
                     "zb_decode2", "zb_encode"), "mdc"),
    **dict.fromkeys(("HalfPlaneRegion", "RatePoint", "RegionUnion", "SearchBudget",
                     "blockwise_region", "frontier", "region_for_pair", "sr_outer_region"),
                    "regions"),
    **dict.fromkeys(("DistortionSpec", "PerLetterDistortion", "SrEncoded", "hamming_spec",
                     "select_reproductions", "sr_decode_full", "sr_decode_stage1",
                     "sr_encode"), "sr_codec"),
}
_SUBMODULES = ("bounds", "corpus", "empirics", "fsm", "mdc", "regions", "sr_codec", "verify")

__version__ = "0.1.0"

__all__ = [*_ORIGIN, *_SUBMODULES]


def __getattr__(name: str):
    if name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _ORIGIN:
        value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
