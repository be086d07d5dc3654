"""The package's public surface, and the README's library example."""

from pathlib import Path

import gaussmoments
from gaussmoments import moments as M
from gaussmoments import recovery as R
from gaussmoments.rng import SplitMix64
from util import rand_mixture


def test_every_exported_name_resolves():
    missing = [name for name in gaussmoments.__all__
               if not hasattr(gaussmoments, name)]
    assert missing == []
    assert len(set(gaussmoments.__all__)) == len(gaussmoments.__all__)


def test_recover_returns_the_mixture_and_no_result_type():
    # recover returns the MixtureParams it verified; there is no wrapper
    # with a residual that could only ever be 0
    assert "RecoveryResult" not in gaussmoments.__all__
    assert not hasattr(gaussmoments, "RecoveryResult")
    assert not hasattr(R, "RecoveryResult")
    p = rand_mixture(SplitMix64(5), 3, 2, distinct_first=True)
    res = R.recover(M.mixture_moments(p, 3), p.components[0].mean[0],
                    p.components[1].mean[0])
    assert type(res) is M.MixtureParams and res == p


def test_readme_library_example_runs():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = text.split("## Library", 1)[1].split("```python\n", 1)[1]
    exec(example.split("```", 1)[0], {})
