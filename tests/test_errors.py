"""Toolkit errors survive pickling, the way worker exceptions reach the parent."""

import inspect
import pickle

from fragaudit import errors

ARGS = {  # classes whose constructor takes more than a message
    "FormatError": ("truncated header", 12),
    "AllRunsFailed": (6,),
}


def test_every_toolkit_error_pickles_unchanged():
    found = [c for c in vars(errors).values()
             if inspect.isclass(c) and issubclass(c, errors.FragAuditError)]
    classes = [c for c in vars(errors).values()
               if inspect.isclass(c) and c.__module__ == errors.__name__]
    assert found == classes  # every class errors.py defines is a toolkit error
    assert set(ARGS) <= {cls.__name__ for cls in classes}
    for cls in classes:
        exc = cls(*ARGS.get(cls.__name__, ("a message",)))
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc)
        assert back.payload() == exc.payload()
        assert vars(back) == vars(exc)
