"""The integer test that every input gate shares.

It imports nothing from bitrans, so the section operator, the problem
types and the configuration reader can all call it; each keeps its own
error class and message.
"""

import numpy as np


def is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer))
