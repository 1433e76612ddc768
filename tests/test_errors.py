import copy
import pickle

import numpy as np
import pytest

from hypermat import errors
from hypermat.errors import HypermatError, NotConverged, ParseError, SingularShift
from hypermat.series import EvalReport


def _round_trips(exc):
    return [copy.copy(exc), copy.deepcopy(exc), pickle.loads(pickle.dumps(exc))]


@pytest.mark.parametrize("k", [0, 2])
def test_singular_shift_copies_and_pickles(k):
    for twin in _round_trips(SingularShift(k)):
        assert type(twin) is SingularShift
        assert str(twin) == f"base + {k}*I is singular"
        assert twin.shift == k + 1


def test_parse_error_copies_and_pickles():
    for twin in _round_trips(ParseError("matrices.A[1][0]", "expected a [re, im] pair")):
        assert type(twin) is ParseError
        assert str(twin) == "matrices.A[1][0]: expected a [re, im] pair"
        assert twin.location == "matrices.A[1][0]"


def test_not_converged_copies_and_pickles_its_report():
    report = EvalReport(np.array([[1.0 + 2.0j]]), 7, 0.25, False)
    for twin in _round_trips(NotConverged("series overflowed at degree 7", report=report)):
        assert type(twin) is NotConverged
        assert str(twin) == "series overflowed at degree 7"
        assert np.array_equal(twin.report.value, report.value)
        assert (twin.report.degrees_used, twin.report.last_increment_norm) == (7, 0.25)
        assert twin.report.converged is False


#: The errors built from one message; SingularShift and ParseError build theirs.
_MESSAGE_ERRORS = [
    cls
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, HypermatError)
    if cls not in (SingularShift, ParseError)
]


@pytest.mark.parametrize("cls", _MESSAGE_ERRORS)
def test_every_other_error_copies_and_pickles(cls):
    for twin in _round_trips(cls("a message")):
        assert type(twin) is cls
        assert str(twin) == "a message"
