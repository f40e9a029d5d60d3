import pytest

from selfaffine import pressure

#: More level pressures than any root search in the suite needs.
LEVEL_CALL_LIMIT = 2000


@pytest.fixture
def level_call_limit(monkeypatch):
    """Count ``pressure_level`` calls and fail past ``LEVEL_CALL_LIMIT``, so a
    root search that never ends fails instead of hanging the suite."""
    calls = []
    original = pressure.pressure_level

    def counting(*args, **kwargs):
        calls.append(args[2])
        if len(calls) > LEVEL_CALL_LIMIT:
            raise AssertionError(f"more than {LEVEL_CALL_LIMIT} pressure_level calls")
        return original(*args, **kwargs)

    monkeypatch.setattr(pressure, "pressure_level", counting)
    return calls
