"""No payload a peer can put on the wire may raise out of a correct process.

``binarycodec.loads`` re-runs message constructors but checks no field
types: a registered message can arrive with a list, a dict or another
message in *any* field.  An exception out of ``Process.deliver`` is
recorded by the runtime node as a crash of the **receiver**, so a
handler that raises on such a payload lets one Byzantine message kill a
correct node.  Every protocol stack a :class:`~repro.stacks.ProtocolPlan`
builds is fed routed messages whose module id and body are arbitrary
trees that survived a ``dumps``/``loads`` round trip — from any sender,
in any number, addressed to its real modules more often than not.
"""

import dataclasses
import functools

import pytest
import hypothesis
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.baselines.benor import BenOrDecide, PVote, RVote
from repro.baselines.bv_broadcast import BvValue
from repro.baselines.mmr14 import AuxMsg, MmrDecide
from repro.core.broadcast import RbcMessage
from repro.core.coin import CoinShareMsg
from repro.core.consensus import BinaryAgreement, DecideMsg
from repro.crypto.dealer import SignedShare
from repro.crypto.shamir import Share
from repro.params import ProtocolParams
from repro.runtime import binarycodec, codec
from repro.stacks import ProtocolPlan
from repro.types import Phase, Step, StepValue

from ..conftest import make_member

N, T = 4, 1

#: The traceback names the handler that raised, which is the finding;
#: shrinking a ten-delivery tree of trees costs minutes per stack.
NO_SHRINK = [hypothesis.Phase.explicit, hypothesis.Phase.reuse,
             hypothesis.Phase.generate]

STACKS = {
    "bracha": dict(protocol="bracha", coin="local", instances=1),
    "bracha-x2": dict(protocol="bracha", coin="local", instances=2),
    "bracha-shares": dict(protocol="bracha", coin="shares", instances=1),
    "benor": dict(protocol="benor", coin="local", instances=1),
    "benor-crash": dict(protocol="benor-crash", coin="local", instances=1),
    "mmr14": dict(protocol="mmr14", coin="dealer", instances=1),
    "acs": dict(protocol="acs", coin="local", instances=1),
}

#: Names a message must carry to get past the first guard of some handler.
TAGS = ("rbc", "bracha", "bracha-0", "bracha-1", "benor", "benor-crash",
        "bv", "mmr14", "coin", "acs-prop", "acs0-aba0", "acs0-aba1")

leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 7), st.integers(),
    st.floats(allow_nan=True), st.text(max_size=3), st.binary(max_size=3),
    st.sampled_from(TAGS), st.sampled_from(list(Phase)),
    st.sampled_from(list(Step)),
)


def construct(cls, fields):
    """``cls(*fields)``, or ``None`` where the constructor rejects them
    (as it would inside ``loads``, which then drops the frame)."""
    try:
        return cls(*fields)
    except Exception:
        return None


boxes = st.one_of(
    st.lists(leaves, max_size=3),
    st.lists(leaves, max_size=3).map(tuple),
    st.dictionaries(st.text(max_size=2), leaves, max_size=2),
)
values = st.one_of(leaves, boxes, st.lists(boxes, max_size=2),
                   st.lists(boxes, max_size=2).map(tuple))
#: Any registered wire message with any of ``values`` in any field.
garbage_messages = st.one_of([
    st.tuples(*[values] * len(dataclasses.fields(cls)))
    .map(functools.partial(construct, cls))
    for cls in sorted(codec._MESSAGES.values(), key=lambda cls: cls.__name__)
])
#: What ``loads`` can put in a field: scalars, lists, dicts, messages.
trees = st.one_of(values, garbage_messages)


def mostly(valid):
    """``valid`` three times in four, any tree otherwise (a die roll:
    ``one_of`` would flatten ``trees`` and weigh every branch alike)."""
    return st.builds(lambda roll, usual, hostile: usual if roll else hostile,
                     st.integers(0, 3), valid, trees)


def near(cls, *valid):
    """A ``cls`` message most of whose fields are what a correct peer
    sends — the shape that gets past a handler's first guards with one
    hostile field still in it."""
    return st.tuples(*map(mostly, valid)).map(functools.partial(construct, cls))


bits = st.sampled_from([0, 1])
rounds = st.integers(1, 3)
pids = st.integers(0, N - 1)
instances = st.one_of(
    st.tuples(mostly(st.sampled_from(TAGS)), mostly(rounds), mostly(rounds),
              mostly(pids)),
    st.tuples(st.just("acs-prop"), mostly(st.just(0)), mostly(pids)),
)
near_messages = st.one_of(
    near(RbcMessage, instances, pids, st.sampled_from(list(Phase)),
         near(StepValue, bits, st.booleans())),
    near(DecideMsg, bits),
    near(RVote, rounds, bits), near(PVote, rounds, st.one_of(bits, st.none())),
    near(BenOrDecide, bits),
    near(BvValue, rounds, bits), near(AuxMsg, rounds, bits),
    near(MmrDecide, bits),
)


@st.composite
def near_coin_shares(draw, dealer):
    """Genuine dealer shares, each field mostly left as issued."""
    signed = dealer.share_for(draw(pids), draw(rounds))

    def kept(field):
        return draw(mostly(st.just(field)))

    share = kept(construct(Share, (kept(signed.share.x), kept(signed.share.y))))
    return construct(CoinShareMsg, (kept(signed.round), kept(construct(
        SignedShare,
        (kept(signed.holder), kept(signed.round), share, kept(signed.tag))))))


def stack(name):
    spec = STACKS[name]
    process, _stub = make_member(N, T)
    plan = ProtocolPlan(spec["protocol"], ProtocolParams(N, T), spec["coin"],
                        seed=7, instances=spec["instances"])
    modules = plan.build(process)
    process.start()
    plan.propose(modules, 0, plan.default_proposals()[0])
    return process


@pytest.mark.parametrize("name", sorted(STACKS))
@given(data=st.data())
@settings(max_examples=100, deadline=None, phases=NO_SHRINK,
          suppress_health_check=[HealthCheck.too_slow])
def test_no_decodable_payload_raises_out_of_deliver(name, data):
    process = stack(name)
    bodies = near_messages
    if "coin" in process.modules:
        shares = near_coin_shares(process.modules["coin"]._dealer)
        bodies = st.one_of(near_messages, shares, shares, shares)
    # The same message from several senders is what fills a quorum and
    # carries a hostile field past the counting into the upcalls.
    deliveries = data.draw(st.lists(st.tuples(
        st.lists(pids, min_size=1, max_size=N),
        mostly(st.sampled_from(sorted(process.modules))),
        mostly(bodies),
    ), max_size=10))
    for senders, module_id, body in deliveries:
        routed = binarycodec.loads(binarycodec.dumps((module_id, body)))
        for sender in senders:
            process.deliver(sender, routed)


@pytest.mark.parametrize("name", sorted(STACKS))
@given(bit=leaves)
@example(bit=0.0)
@example(bit=1.0)
@example(bit=-0.0)
@example(bit=True)
@settings(max_examples=25, deadline=None)
def test_a_decide_vote_of_any_leaf_never_raises(name, bit):
    """A DECIDE whose bit is any scalar, from every peer: ``0.0 == 0``
    passes a membership test, and one vote counted under a float key
    would make the tally raise; bools are bits and still count."""
    process = stack(name)
    for module_id, module in list(process.modules.items()):
        if isinstance(module, BinaryAgreement):
            routed = binarycodec.loads(
                binarycodec.dumps((module_id, module.DECIDE(bit))))
            for sender in range(N):
                process.deliver(sender, routed)
