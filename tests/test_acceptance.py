"""Acceptance gate: every headline guarantee, one test per criterion.

Each test prints the same one-line report the selftest command emits,
so `pytest -v -s tests/test_acceptance.py` reads as the full scorecard.
"""

import dataclasses
import hashlib

import pytest

from fadefilt import acceptance, cli

# SHA-256 of the `fadefilt selftest` report; a change to any printed
# figure must re-baseline this on purpose
SELFTEST_SHA256 = "127273fbebf61ce23838bd1c6b60d4f9abf175507f320652bf9351738d4cdb89"

_IDS = [f"{i:02d}-{name}" for i, (name, _) in enumerate(acceptance.CRITERIA, start=1)]


@pytest.mark.parametrize("index", range(1, len(acceptance.CRITERIA) + 1), ids=_IDS)
def test_criterion(index):
    result = acceptance.run_criterion(index)
    print(acceptance.format_result(result))
    assert result.passed, f"criterion {index} ({result.name}): {result.detail}"


def test_criterion_count():
    assert len(acceptance.CRITERIA) == 11


def test_perturbed_coefficient_is_caught(monkeypatch):
    # sensitivity check: a 1e-3 nudge on the first tabulated coefficient
    # must flip the equivalence criterion to FAIL
    real, calls = acceptance.closed_form_coefficients, []

    def nudged(*args, **kwargs):
        ref = real(*args, **kwargs)
        calls.append(ref)
        if len(calls) > 1:
            return ref
        b = ref.b.copy()
        b[0] += 1e-3
        return dataclasses.replace(ref, b=b)

    monkeypatch.setattr(acceptance, "closed_form_coefficients", nudged)
    passed, detail = acceptance.check_closed_form_equivalence()
    assert not passed, detail


def test_report_lines_are_deterministic():
    first = [acceptance.format_result(r) for r in acceptance.run_all()]
    second = [acceptance.format_result(r) for r in acceptance.run_all()]
    assert first == second


def test_selftest_report_is_byte_identical(capsys):
    assert cli.main(["selftest"]) == 0
    report = capsys.readouterr().out
    digest = hashlib.sha256(report.encode()).hexdigest()
    assert digest == SELFTEST_SHA256, f"selftest report changed:\n{report}"
