"""No function of `oamch` takes a swappable function or a sample count.

Every closed form and oracle is called through its module's global name, so
a test swaps one with `monkeypatch.setattr` on that global and a tracer sees
every call; a callable default would bind the function when the module loads
and hide its calls.  The validation suites run fixed sweeps, so no function
takes a `samples` count either.
"""

import importlib
import inspect
import pkgutil

import oamch


def _defined_functions():
    """(qualified name, function) for every function and method defined in oamch's modules."""
    for info in pkgutil.iter_modules(oamch.__path__):
        module = importlib.import_module(f"oamch.{info.name}")
        owners = [module, *(v for v in vars(module).values() if inspect.isclass(v))]
        for owner in owners:
            for value in vars(owner).values():
                if isinstance(value, (staticmethod, classmethod)):
                    value = value.__func__
                elif isinstance(value, property):
                    value = value.fget
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    yield f"{module.__name__}.{value.__qualname__}", value


def test_no_parameter_default_is_a_callable_and_none_is_named_samples():
    names = []
    offending = []
    for name, fn in _defined_functions():
        names.append(name)
        for param in inspect.signature(fn).parameters.values():
            if param.name == "samples" or (param.default is not param.empty and callable(param.default)):
                offending.append(f"{name}({param.name})")
    # the walk reaches module functions, methods, properties and class methods
    for reached in ("oamch.coincidence.ch_parameter", "oamch.validate.run_sign_suite",
                    "oamch.coincidence.AmplitudeMatrix.p", "oamch.azimuthal.StepIndex.half_integer"):
        assert reached in names
    assert offending == []
