"""Unit tests of the execution-backend selector."""

import pytest

from repro.errors import ConfigError
from repro.exec.backend import (
    BACKEND_ENV,
    BACKENDS,
    PARALLEL,
    SCALAR,
    VECTOR,
    backend_from_env,
    current_backend,
    dispatch,
    is_vector,
    use_backend,
    validate_backend,
)


def test_default_backend_is_vector(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    assert current_backend() == VECTOR
    assert is_vector()


def test_env_selects_backend(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "scalar")
    assert backend_from_env() == SCALAR
    assert current_backend() == SCALAR
    assert not is_vector()


def test_env_is_normalized(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "  VeCtOr ")
    assert backend_from_env() == VECTOR


def test_invalid_env_raises_config_error(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "simd")
    with pytest.raises(ConfigError) as excinfo:
        backend_from_env()
    assert "simd" in str(excinfo.value)
    assert excinfo.value.context["valid"] == list(BACKENDS)


def test_validate_backend_rejects_non_string():
    with pytest.raises(ConfigError):
        validate_backend(123)


def test_use_backend_overrides_and_restores(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    with use_backend(SCALAR):
        assert current_backend() == SCALAR
    assert current_backend() == VECTOR


def test_use_backend_nests_and_unwinds():
    with use_backend(SCALAR):
        with use_backend(VECTOR):
            assert current_backend() == VECTOR
        assert current_backend() == SCALAR


def test_use_backend_overrides_env(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "scalar")
    with use_backend(VECTOR):
        assert current_backend() == VECTOR
    assert current_backend() == SCALAR


def test_use_backend_rejects_invalid_name():
    with pytest.raises(ConfigError):
        with use_backend("gpu"):
            pass


def test_dispatch_picks_by_backend():
    def scalar_impl():
        return "s"

    def vector_impl():
        return "v"

    with use_backend(SCALAR):
        assert dispatch(scalar_impl, vector_impl)() == "s"
    with use_backend(VECTOR):
        assert dispatch(scalar_impl, vector_impl)() == "v"
    with use_backend(PARALLEL):
        assert dispatch(scalar_impl, vector_impl)() == "v"
