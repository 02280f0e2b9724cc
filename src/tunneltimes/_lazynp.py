"""numpy, imported the first time one of its attributes is read, so that the
closed-form paths never pay its import. An interpreter that holds numpy gets
it back; otherwise the lazy module is registered in ``sys.modules``, where
numpy's own submodule imports and any later ``import numpy`` find it.

The first reader executes numpy under a lock, and a thread that reads
meanwhile waits for it. ``importlib.util.LazyLoader`` before Python 3.12 marks
the module loaded before executing it, so that second thread would get an
AttributeError."""

import importlib.util
import sys
import threading
import types

_lock = threading.RLock()  # re-entered by numpy's own imports as it executes
_pending = []  # numpy's spec until the first read executes it


class _LazyModule(types.ModuleType):
    def __getattribute__(self, name):
        if type(self) is _LazyModule:
            with _lock:
                if _pending:
                    _pending.pop().loader.exec_module(self)
                    self.__class__ = types.ModuleType
        return types.ModuleType.__getattribute__(self, name)


np = sys.modules.get("numpy")
if np is None:
    _pending.append(importlib.util.find_spec("numpy"))
    np = importlib.util.module_from_spec(_pending[0])
    np.__class__ = _LazyModule
    sys.modules["numpy"] = np
