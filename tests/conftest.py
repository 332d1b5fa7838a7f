from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import liemorph as lm
from liemorph import jets
from liemorph.jets import Frame


@pytest.fixture(scope="session")
def built():
    """One instance of every builder the tests share."""
    out = {
        "N3": lm.build_N(3), "N4": lm.build_N(4),
        "H1": lm.build_H(1), "H2": lm.build_H(2),
        "K3": lm.build_K(3), "K4": lm.build_K(4),
        "S2": lm.build_S(2), "S3": lm.build_S(3),
        "G3": lm.build_G3(1.0, 0.5), "G3_half": lm.build_G3(0.5, 0.0),
        "Ga1": lm.build_Galpha(1.0),
        "DR": lm.build_damek_ricci(2, 1),
    }
    return out


@pytest.fixture(scope="session")
def frames(built):
    return {name: Frame.build(alg, real)
            for name, (alg, real) in built.items() if real is not None}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def family_report():
    """verify_family's report on given worst residuals: tau (F,) and kappa (F, F).

    The residuals stand in for one point's operators, so the report is built
    by the same code as on a sampled family; the frame only gives the size of
    that point.
    """
    frame = SimpleNamespace(realization=SimpleNamespace(ambient=2))

    def report(tau, kappa, tol=1e-8):
        tau, kappa = np.asarray(tau, dtype=float), np.asarray(kappa, dtype=float)
        with mock.patch.object(jets, "_frame_operators", lambda *_: (kappa[None], tau[None])):
            return jets.verify_family([jets.Constant(0.0)] * len(tau), [np.eye(2)], frame, tol)
    return report
