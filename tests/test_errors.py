import re

import numpy as np
import pytest

from sphere_osc.errors import DomainError, check_int


# every shape of bound: none, lower only, upper only, both
@pytest.mark.parametrize("lo, hi, bad, message", [
    (None, None, 2.5, "k must be an integer, got 2.5"),
    (0, None, -1, "k must be an integer >= 0, got -1"),
    (None, 19, 20, "k must be an integer <= 19, got 20"),
    (0, 19, 20, "k must be an integer in 0..19, got 20"),
])
def test_check_int_names_its_bound(lo, hi, bad, message):
    assert check_int("k", np.int64(7), lo, hi) == 7
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        check_int("k", bad, lo, hi)
