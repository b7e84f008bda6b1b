from types import ModuleType

import ovbkit


def test_star_import_gives_every_public_name_and_no_modules():
    namespace: dict = {}
    exec("from ovbkit import *", namespace)
    del namespace["__builtins__"]
    public = {
        name for name, value in vars(ovbkit).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(namespace) == public == set(ovbkit.__all__)
    assert not [name for name, value in namespace.items() if isinstance(value, ModuleType)]
