"""Nearest-codeword decoding over prime-power fields under the Manhattan metric.

Library layout:
  gf        - exact F_{p^m} arithmetic, digit expansions, expanded operators
  metrics   - Manhattan distances via the p-ary integer images
  codes     - linear codes, instance generation, brute-force oracles
  qsim      - dense statevector simulation of the cube-state circuits
  decoder   - the decoder end to end (dense and structured backends)
  baselines - classical direct inversion and the separation experiment
  hardness  - the set-cover distance-gap gadget
  cli       - command-line driver
"""

__version__ = "0.1.0"

from .codes import (
    DecodeInstance,
    LinearCode,
    gen_instance,
    instance_from_json,
    instance_to_json,
    min_distance_bruteforce,
    nearest_codeword_oracle,
    plant_instance,
    random_code,
)
from .decoder import (
    DecodeResult,
    decode_dense,
    decode_structured,
    sigma_search,
    verify_candidate,
)
from .gf import Field, FieldElement, expand_operator, top_digit_submatrix
from .metrics import manhattan_dist, manhattan_norm
from .qsim import SigmaParam, cube_overlap

__all__ = [
    "DecodeInstance",
    "DecodeResult",
    "Field",
    "FieldElement",
    "LinearCode",
    "SigmaParam",
    "cube_overlap",
    "decode_dense",
    "decode_structured",
    "expand_operator",
    "gen_instance",
    "instance_from_json",
    "instance_to_json",
    "manhattan_dist",
    "manhattan_norm",
    "min_distance_bruteforce",
    "nearest_codeword_oracle",
    "plant_instance",
    "random_code",
    "sigma_search",
    "top_digit_submatrix",
    "verify_candidate",
]
