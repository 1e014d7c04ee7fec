"""The refusal every size limit raises, and the short form of a number it quotes.

Both halves of happygrid refuse work with these, so they live apart from
either half: a command of one half loads nothing of the other to refuse.
"""

from __future__ import annotations


class TooLargeError(ValueError):
    """The work asked for exceeds a size limit; nothing was built."""


def brief(n: int) -> str:
    """n in decimal, or past 30 digits its digit count: a refusal stays one short line."""
    if -10**30 < n < 10**30:
        return str(n)
    from .digitmap import DigitSystem, digit_count

    return f"{'-' * (n < 0)}<{digit_count(abs(n), DigitSystem(10, 1))} digits>"
