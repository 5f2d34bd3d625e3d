import pytest

from softdeco import decoherence


@pytest.fixture
def pass_counts(monkeypatch):
    """Calls of the angular and frequency passes that decoherence looks up, counted during the test."""
    calls = {"angular_integral": 0, "freq_integrate": 0, "freq_integrate_rows": 0}
    for name in calls:
        original = getattr(decoherence, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(decoherence, name, counted)
    return calls
