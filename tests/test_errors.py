import importlib
import inspect
import pkgutil

import atlstar
from atlstar.errors import AtlstarError, InputError, ResourceError

# raised only when the program itself is at fault (exit 4)
FAULTS = {"bdd.BddError", "formula.FormulaError", "bdd._OrderBroken"}


def _exception_classes():
    for info in pkgutil.iter_modules(atlstar.__path__):
        mod = importlib.import_module(f"atlstar.{info.name}")
        for _, cls in inspect.getmembers(mod, inspect.isclass):
            if (issubclass(cls, BaseException)
                    and cls.__module__ == mod.__name__
                    and cls not in (AtlstarError, InputError,
                                    ResourceError)):
                yield f"{info.name}.{cls.__name__}", cls


def test_every_error_class_decides_one_exit_code():
    seen = set()
    for name, cls in _exception_classes():
        seen.add(name)
        kinds = [issubclass(cls, InputError), issubclass(cls, ResourceError),
                 name in FAULTS]
        assert sum(kinds) == 1, name
        if name in FAULTS:
            assert not issubclass(cls, AtlstarError), name
    assert FAULTS <= seen
