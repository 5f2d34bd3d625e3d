import importlib

import pytest

MODULES = ["cli", "currents", "decoherence", "experiment", "kinematics", "numerics", "whichpath"]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    # a name deleted from a module but left in its __all__ breaks `import *`
    module = importlib.import_module(f"softdeco.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from softdeco.{name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
