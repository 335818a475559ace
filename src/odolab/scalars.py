"""Scalar backends: exact rationals by default, binary floats when roots force it.

A "scalar" is either a `fractions.Fraction` (rational backend) or a `float`
(float backend, tolerance 1e-12).  Specs whose weights are all rational run
entirely on Fractions; specs built from numerically solved parameters run on
floats.  Mixed arithmetic coerces to float.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

Scalar = Union[Fraction, float]

FLOAT_TOL = 1e-12


def is_exact(x: Scalar) -> bool:
    return isinstance(x, (Fraction, int))


def parse_scalar(text: str) -> Scalar:
    """Parse "p/q" as an exact rational, otherwise as a float or int."""
    s = text.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    if s.lstrip("+-").isdigit():
        return Fraction(int(s))
    return float(s)


def format_scalar(x: Scalar) -> str:
    """Render a scalar for TSV/JSON: rationals as "p/q", floats to 15 digits."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.15g}"


def integer_view(values) -> Optional[tuple]:
    """(numerators, denominator) of exact values over their lcm denominator.

    None when any value is a float.
    """
    if not all(is_exact(v) for v in values):
        return None
    den = math.lcm(*{v.denominator for v in values})
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def scalar_sum(values) -> Scalar:
    """Sum that stays exact on rationals and uses fsum on floats."""
    vals = list(values)
    if all(is_exact(v) for v in vals):
        return sum(vals, Fraction(0))
    return math.fsum(float(v) for v in vals)
