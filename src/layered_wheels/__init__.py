"""Layered wheels: deterministic generation of finite prefixes of
(f, ell)-layered wheels, structural verification, and width analysis."""

from .functions import (
    CumulativeFunction,
    SlowFunction,
    parse_f_spec,
)
from .wheel import (
    WheelPrefix,
    build_prefix,
    verify_rules,
)

__version__ = "0.1.0"

__all__ = [
    "CumulativeFunction",
    "SlowFunction",
    "WheelPrefix",
    "build_prefix",
    "parse_f_spec",
    "verify_rules",
    "__version__",
]
