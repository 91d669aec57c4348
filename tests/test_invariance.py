"""Metamorphic checks: symmetries of the problem that need no oracle.

Threshold NL-means on an integer image commutes with transposing the
image and with flipping it upside down, in both threshold modes.  The
threshold map is symmetric under both bit for bit, and the squared patch
distances are exact integers, so every selection, hence every count, is
the same.  The denoised values are the same sums taken in another order:
the box sums run along the other axis, and the offsets accumulate in
another order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from redlab.denoise import DenoiseConfig, nlmeans_threshold

# The largest float sums are the prefix sums of one weight map: at most 24²
# anchors of weight at most 1, over at most 48 steps, then times pixels of
# at most 255.  Reordering them moves a value by about 24² * 48 * 255 * 2^-53
# = 8e-10 at worst; 600 random cases of this strategy's kind differed by at
# most 9.4e-12.
DENOISED_ATOL = 1e-9

TRANSFORMS = {
    "transpose": lambda a: a.T,
    "vertical-flip": lambda a: a[::-1],
}


@st.composite
def denoise_cases(draw):
    h, w = draw(st.integers(8, 24)), draw(st.integers(8, 24))
    p = draw(st.integers(1, min(h, w, 5)))
    c = draw(st.integers(0, 4))
    mode = draw(st.sampled_from(["constant-mean", "per-offset"]))
    sigma = draw(st.sampled_from([3.0, 10.0, 30.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.clip(np.round(128.0 + 50.0 * rng.standard_normal((h, w))), 0, 255)
    u[:, :: draw(st.integers(2, 5))] += 40.0  # structure, so selections differ
    nfa = min(4.41, (2 * c + 1) ** 2)
    return u, DenoiseConfig(sigma=sigma, patch_side=p, search_radius=c, nfa_max=nfa,
                            threshold_mode=mode)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(denoise_cases(), st.sampled_from(sorted(TRANSFORMS)))
def test_threshold_denoising_commutes_with_transpose_and_flip(case, name):
    u, cfg = case
    move = TRANSFORMS[name]
    base = nlmeans_threshold(u, cfg)
    moved = nlmeans_threshold(np.ascontiguousarray(move(u)), cfg)
    assert np.array_equal(moved.selected_counts, move(base.selected_counts))
    np.testing.assert_allclose(moved.denoised, move(base.denoised), rtol=0, atol=DENOISED_ATOL)
