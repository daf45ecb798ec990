"""``reference_forward`` is the posit-inference semantics.

``test_fused.py`` and ``test_exact_contractions.py`` hold the compiled plan
to it over the model x format x contraction-mode matrix, and the goldens
hold it to frozen bytes.  This module pins the serve network to it.
"""

import numpy as np

from repro.nn.posit_inference import PositQuantizedNetwork, reference_forward
from repro.nn.zoo import kws_cnn1
from repro.posit import STD_POSIT8


def test_serve_network_is_pinned_to_the_reference():
    """The serve configuration (kws1, posit<8,2>, stable contractions) on
    standard-normal batches of several sizes.  The benchmark's kws stream
    computes its expected answers with exactly this network, so this pins
    them to the reference."""
    qnet = PositQuantizedNetwork(kws_cnn1(seed=0), STD_POSIT8, stable_contractions=True)
    rng = np.random.default_rng(0)
    for n in (1, 5, 16, 33):
        x = rng.standard_normal((n, 1, 31, 20))
        assert qnet.forward(x).tobytes() == reference_forward(qnet.net, qnet.engine, x).tobytes()
