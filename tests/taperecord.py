"""Record hooks for tests.  A node keeps only what its VJP reads, so these
wrap ``Tape.leaf`` and ``Tape.record`` to see every value as it is recorded:
``node_log`` logs each node with its value, and ``recorded_bytes`` sums the
bytes of the recorded arrays without keeping any of them."""

import contextlib
import weakref
from typing import NamedTuple

import numpy as np
import pytest

from gyronet import diffcore as dc


class Recorded(NamedTuple):
    op: str
    inputs: tuple  # input node ids
    value: np.ndarray
    attrs: dict  # the op's attrs, without the record flags that start with "_"
    requires_grad: bool


@contextlib.contextmanager
def node_log():
    """Yield a list that, while the context is open, gets one ``Recorded``
    per node made by ``Tape.leaf`` or ``Tape.record``, in order."""
    log = []
    leaf, record = dc.Tape.leaf, dc.Tape.record

    def logged_leaf(self, data, requires_grad=False):
        t = leaf(self, data, requires_grad)
        log.append(Recorded("leaf", (), t.value, {}, requires_grad))
        return t

    def logged_record(self, op, inputs, value, **kwargs):
        t = record(self, op, inputs, value, **kwargs)
        attrs = {k: v for k, v in kwargs.items() if not k.startswith("_")}
        log.append(Recorded(op, tuple(x.nid for x in inputs), value, attrs,
                            t.node.requires_grad))
        return t

    with pytest.MonkeyPatch.context() as m:
        m.setattr(dc.Tape, "leaf", logged_leaf)
        m.setattr(dc.Tape, "record", logged_record)
        yield log


@contextlib.contextmanager
def recorded_bytes():
    """Yield a one-entry list that, while the context is open, sums the
    bytes of the arrays that tapes record, each array once.  A
    view and a value that is one of its op's inputs (or a leaf's own data)
    add nothing.  No array is kept alive by the count."""
    total = [0]
    seen = {}  # id -> weak reference, so that a reused id is not taken for a counted array
    leaf, record = dc.Tape.leaf, dc.Tape.record

    def count(value, sources):
        if not isinstance(value, np.ndarray):
            total[0] += np.asarray(value).nbytes
            return
        if value.base is not None or any(value is s for s in sources):
            return
        ref = seen.get(id(value))
        if ref is None or ref() is not value:
            seen[id(value)] = weakref.ref(value)
            total[0] += value.nbytes

    def counted_leaf(self, data, requires_grad=False):
        t = leaf(self, data, requires_grad)
        count(t.value, (data,))
        return t

    def counted_record(self, op, inputs, value, **kwargs):
        t = record(self, op, inputs, value, **kwargs)
        count(value, [x.value for x in inputs])
        return t

    with pytest.MonkeyPatch.context() as m:
        m.setattr(dc.Tape, "leaf", counted_leaf)
        m.setattr(dc.Tape, "record", counted_record)
        yield total
