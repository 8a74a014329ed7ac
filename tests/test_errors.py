import inspect
import pickle

import pytest

from rdspill import errors
from rdspill.errors import RdspillError


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


ERRORS = sorted((cls for cls in {RdspillError, *_subclasses(RdspillError)}
                 if cls.__module__ == errors.__name__),
                key=lambda cls: cls.__name__)
ARGUMENTS = {"side": "plus", "message": "too few points", "condition_number": 2.5e13}


def _instance(cls):
    if cls.__init__ is Exception.__init__:
        return cls("too few points")
    names = list(inspect.signature(cls.__init__).parameters)[1:]
    return cls(**{name: ARGUMENTS[name] for name in names})


def test_taxonomy_is_enumerated():
    assert {"InsufficientSupportError", "IllPosedError", "ConfigError"} \
        <= {cls.__name__ for cls in ERRORS}


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_pickle_roundtrip_keeps_message_and_attributes(cls):
    # a caller that runs studies in its own worker processes gets their
    # errors back pickled; an error that fails to unpickle kills a
    # multiprocessing pool's result thread and hangs its map()
    err = _instance(cls)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err) == "too few points"
    assert vars(back) == vars(err)
