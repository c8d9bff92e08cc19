"""Public-surface guards: every public name a module declares must exist and
be its own, not an alias of another module's, and no public callable takes a
tolerance it would only pass along."""

import importlib
import inspect

import pytest

MODULES = ("numkit", "groups", "spaces", "decomp", "geometry", "automorphy",
           "serialize", "suites", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_works(name):
    mod = importlib.import_module(f"sjkit.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"sjkit.{name}.__all__ names missing objects: {missing}"
    namespace = {}
    exec(f"from sjkit.{name} import *", namespace)
    for n in getattr(mod, "__all__", ()):
        obj = getattr(mod, n)
        assert namespace[n] is obj
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == mod.__name__, f"sjkit.{name}.{n} is {obj.__module__}.{n}"


def _public_callables(mod):
    """Every public function, constructor and public method a module declares."""
    for n in getattr(mod, "__all__", ()):
        obj = getattr(mod, n)
        if inspect.isfunction(obj):
            yield n, obj
        elif inspect.isclass(obj):
            yield n, obj.__init__
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and not attr.startswith("_"):
                    yield f"{n}.{attr}", member


@pytest.mark.parametrize("name", MODULES)
def test_thresholds_are_constants_not_parameters(name):
    """Only the suite runners take a tolerance; validate is keyword-only."""
    mod = importlib.import_module(f"sjkit.{name}")
    for qual, fn in _public_callables(mod):
        params = inspect.signature(fn).parameters
        if qual not in ("run_suite", "run_all"):
            assert "tol" not in params, f"sjkit.{name}.{qual} takes tol"
        if "validate" in params:
            assert params["validate"].kind is inspect.Parameter.KEYWORD_ONLY, \
                f"sjkit.{name}.{qual} takes validate positionally"


def test_tolerance_object_is_gone():
    import sjkit
    import sjkit.numkit

    for n in ("Tolerance", "DEFAULT_TOL"):
        assert not hasattr(sjkit, n) and not hasattr(sjkit.numkit, n)


def test_finite_difference_oracles_are_gone():
    import sjkit
    import sjkit.geometry

    for n in ("pushforward", "_pushforwards", "action_jacobian_det", "FD_FIRST_STEP",
              "FD_FIRST_REL", "_norm"):
        assert not hasattr(sjkit, n) and not hasattr(sjkit.geometry, n), n
    assert "TangentVector" not in sjkit.geometry.__all__
    assert sjkit.TangentVector is sjkit.spaces.TangentVector


def test_big_group_holder_layer_is_gone():
    import sjkit
    import sjkit.decomp
    import sjkit.groups

    for n in ("BigComplexGroupElement", "big_mul", "embed_gstarj", "_big_element",
              "embed_disk_jacobi_point"):
        for mod in (sjkit, sjkit.groups, sjkit.decomp):
            assert not hasattr(mod, n), f"{mod.__name__}.{n}"
    assert not hasattr(sjkit.decomp.JacobiHCFactors, "factors")


def test_unused_public_names_are_gone():
    import sjkit
    import sjkit.decomp
    import sjkit.numkit
    import sjkit.suites

    for n in ("bracket", "hc_decompose_gstar", "pminus_component"):
        for mod in (sjkit, sjkit.numkit, sjkit.decomp):
            assert not hasattr(mod, n), f"{mod.__name__}.{n}"
    assert not hasattr(sjkit.decomp.HCFactors, "reconstruct")
    assert "kstarj" not in sjkit.suites._FAMILY
