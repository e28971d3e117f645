import pytest

from plapsim import operators

bundled_only = pytest.mark.skipif(
    operators._BUNDLED_DPTSV is None, reason="numpy ships no OpenBLAS library"
)


@pytest.fixture(params=[pytest.param("bundled", marks=bundled_only), "scipy"])
def lapack(request, monkeypatch):
    """Run the test through numpy's bundled dptsv or, with the lookup emptied, scipy's."""
    if request.param == "scipy":
        monkeypatch.setattr(operators, "_BUNDLED_DPTSV", None)
    return request.param
