import hankel_recover
from hankel_recover import hankel, harness, measurement, modal, solver


def test_package_exports_the_union_of_the_modules_lists():
    # each public name is declared once, in its module's __all__
    modules = (hankel, harness, measurement, modal, solver)
    expected = [name for module in modules for name in module.__all__]
    assert hankel_recover.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in modules:
        for name in module.__all__:
            assert getattr(hankel_recover, name) is getattr(module, name)


def test_lift_context_is_not_exported():
    # solve's unchecked operator pair stays inside the package
    assert "HankelLift" not in hankel_recover.__all__
    assert not hasattr(hankel_recover, "HankelLift")
