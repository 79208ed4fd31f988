import sys

import pytest


@pytest.fixture
def int_digit_limit_640():
    """Python's int-to-str digit limit at 640 for the test, then back as it was."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("Python before 3.10.7 has no int-to-str digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(before)
