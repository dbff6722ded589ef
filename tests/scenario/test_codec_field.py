"""The ``codec`` scenario field: a validated constant.

Binary is the only wire format of the runtime fabrics.  The field stays
only because the frozen ``benchmarks/e2e`` workloads still pass
``"codec": "binary"``: that must remain legal, everything else —
``"json"`` above all — must be rejected by name rather than accepted
and ignored, and the field never appears in a serialized scenario.
(``meta["codec"] == "binary"`` on every fabric is pinned by
``test_result_shape.py``.)
"""

import pytest

from repro.errors import ConfigError
from repro.scenario import Scenario


def test_codec_defaults_to_binary():
    assert Scenario(protocol="bracha", n=4, proposals=1).codec == "binary"


@pytest.mark.parametrize("codec", ["json", "msgpack"])
def test_any_other_codec_is_rejected_by_name(codec):
    with pytest.raises(
        ConfigError, match=f"{codec!r}.*JSON wire format was removed.*drop"
    ):
        Scenario(protocol="bracha", n=4, proposals=1, codec=codec)


def test_from_dict_accepts_binary_and_rejects_json():
    document = Scenario(protocol="bracha", n=4, proposals=1).to_dict()
    explicit = Scenario.from_dict({**document, "codec": "binary"})
    assert explicit == Scenario.from_dict(document)
    with pytest.raises(ConfigError, match="'json'.*removed"):
        Scenario.from_dict({**document, "codec": "json"})


def test_to_dict_omits_the_codec():
    explicit = Scenario(protocol="bracha", n=4, proposals=1, codec="binary")
    assert "codec" not in explicit.to_dict()

