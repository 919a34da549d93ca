"""Every lru_cache in the package is bounded, so a long-lived process that
walks many fields or primes keeps a fixed amount of cached state."""

import importlib
import pkgutil

import horocount


def _caches():
    for info in pkgutil.iter_modules(horocount.__path__):
        module = importlib.import_module(f"horocount.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
                yield f"{module.__name__}.{name}", obj.cache_parameters()["maxsize"]


def test_every_lru_cache_has_a_finite_maxsize():
    caches = dict(_caches())
    assert "horocount.field.zeta_K_2" in caches
    unbounded = [name for name, maxsize in caches.items() if maxsize is None]
    assert not unbounded, f"unbounded caches: {unbounded}"
