"""fadefilt runs every filter half through scipy's compiled recursion,
loaded without importing ``scipy.signal``: it and the steady state must
give lfilter's and lfilter_zi's bits for every half the package builds,
and no run may import ``scipy.signal`` after all."""

import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.signal

from fadefilt import design
from fadefilt.closed_form import ClosedForm, closed_form_coefficients
from fadefilt.design import (
    FilterDesign,
    LdeCoefficients,
    _linear_filter,
    derive_causal_lde,
    derive_noncausal_pair,
    spectrum_filter_bank,
)
from fadefilt.flow import FlowConfig
from fadefilt.weights import Causality, WeightSpec

# the design-sweep grid: B 0-6, D <= min(B, 2), kappa 0-2 causal and 0
# two-sided, at its pole ladder
GRID_POLES = (0.3, 0.5, 0.7, 0.85, 0.95, 0.98)


def _derived(degree: int, causality: Causality) -> list:
    """Every half derived at ``degree`` over the grid; the designs the
    package refuses (the census's false instability verdicts) are left out."""
    causal = causality is Causality.CAUSAL
    halves = []
    for derivative in range(min(degree, 2) + 1):
        for kappa in (0, 1, 2) if causal else (0,):
            for pole in GRID_POLES:
                weight = WeightSpec(math.log(pole), kappa, causality)
                fd = FilterDesign(degree, derivative, weight, 1.7 if causal else 0.0)
                try:
                    filt = derive_causal_lde(fd) if causal else derive_noncausal_pair(fd)
                except (ValueError, RuntimeError):
                    continue
                halves.extend(filt.halves)
    return halves


def _built() -> list:
    """The closed forms, the flow's filters, a spectrum bank, order 0 and
    derived orders 10 and 11."""
    halves = [LdeCoefficients(b=[2.0], a=[1.0])]
    for form in ClosedForm:
        for pole in (0.3, math.exp(-0.5), 0.9):
            halves.extend(closed_form_coefficients(form, pole, 2.0).halves)
    cfg = FlowConfig()
    for filt in (cfg.spatial_differentiator(), cfg.temporal_differentiator(),
                 cfg.spatial_smoother(), cfg.temporal_smoother()):
        halves.extend(filt.halves)
    halves.extend(spectrum_filter_bank(FilterDesign(4, 1, WeightSpec(math.log(0.6), 1), 2.0)).filters)
    for kappa in (3, 4):
        halves.append(derive_causal_lde(FilterDesign(6, 1, WeightSpec(math.log(0.5), kappa), 1.0)))
    return halves


HALVES = [pytest.param(_built, id="built")] + [
    pytest.param(functools.partial(_derived, d, c), id=f"{c.value}-B{d}")
    for c in Causality for d in range(7)
]


def test_the_halves_cover_orders_0_to_11():
    orders = {h.order for make in HALVES for h in make.values[0]()}
    assert orders == set(range(12))


def _same_bits(got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _inputs(rng) -> list:
    """(x, axis) pairs: 1-D and 2-D, along both axes, and the
    negative-stride flipped views that runtime._half_passes passes."""
    x1, x2 = rng.standard_normal(97), rng.standard_normal((13, 17))
    cases = [(x1, 0), (np.flip(x1), 0)]
    for axis in (0, 1):
        cases += [(x2, axis), (np.flip(x2, axis=axis), axis)]
    return cases


@pytest.mark.parametrize("make", HALVES)
def test_linear_filter_is_lfilter_bitwise(make):
    rng = np.random.default_rng(20)
    for half in make():
        b, a = half.b, half.a
        for x, axis in _inputs(rng):
            _same_bits(_linear_filter(b, a, x, axis), scipy.signal.lfilter(b, a, x, axis=axis))
            held = half._held(x.swapaxes(0, axis)[0]).swapaxes(0, axis)
            for zi in (held, rng.standard_normal(held.shape), np.zeros(held.shape)):
                got = _linear_filter(b, a, x, axis, zi)
                want = scipy.signal.lfilter(b, a, x, axis=axis, zi=zi)
                assert len(got) == len(want) == 2
                for g, w in zip(got, want):  # y, then zf
                    _same_bits(g, w)


@pytest.mark.parametrize("make", HALVES)
def test_steady_state_is_lfilter_zi_bitwise(make):
    for half in make():
        if half.order:
            _same_bits(half.steady_state, scipy.signal.lfilter_zi(half.b, half.a))
        else:
            _same_bits(half.steady_state, np.zeros(0))


def test_a_directory_without_the_extension_raises_an_import_error_naming_it(tmp_path):
    with pytest.raises(ImportError, match=r"scipy\.signal\._sigtools"):
        design._load_sigtools(str(tmp_path))


def test_the_import_time_probe_accepts_the_loaded_recursion():
    design._check_linear_filter(_linear_filter)


def _one_ulp_off(*args):
    y, zf = _linear_filter(*args)
    return np.nextafter(y, np.inf), zf


def _zf_negated(*args):
    y, zf = _linear_filter(*args)
    return y, -zf


def _float32(*args):
    return tuple(v.astype(np.float32) for v in _linear_filter(*args))


def _no_zi(b, a, x, axis, zi=None):
    return _linear_filter(b, a, x, axis), zi


@pytest.mark.parametrize("fake", [_one_ulp_off, _zf_negated, _float32, _no_zi])
def test_the_import_time_probe_rejects_another_recursion_naming_scipy(fake):
    with pytest.raises(ImportError, match=rf"of scipy {scipy.__version__} does not"):
        design._check_linear_filter(fake)


def test_no_run_imports_scipy_signal(tmp_path):
    script = (
        "import contextlib, io, json, sys\n"
        "seen = {}\n"
        "import fadefilt.cli\n"
        "seen['import'] = 'scipy.signal' in sys.modules\n"
        "from fadefilt.fileio import write_float_stack\n"
        "from fadefilt.synthetic import translating_plaid\n"
        "stack, out = sys.argv[1] + '/s.f32', sys.argv[1] + '/run'\n"
        "write_float_stack(stack, translating_plaid(8, 16, 16, (0.4, -0.3)))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [fadefilt.cli.main(['flow', '--frames', stack, '--out', out])]\n"
        "    seen['flow'] = 'scipy.signal' in sys.modules\n"
        "    codes.append(fadefilt.cli.main(['selftest']))\n"
        "    seen['selftest'] = 'scipy.signal' in sys.modules\n"
        "print(json.dumps({'codes': codes, 'seen': seen}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(design.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report == {"codes": [0, 0],
                      "seen": {"import": False, "flow": False, "selftest": False}}
