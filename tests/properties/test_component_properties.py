"""Property tests of individual protocol state machines.

These feed *arbitrary* message sequences — including duplicates, garbage
and Byzantine-shaped inputs — into single modules and assert the
machine-level invariants that the distributed proofs assume.
"""

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.baselines.bv_broadcast import BinaryValueBroadcast, BvValue
from repro.core.broadcast import BroadcastLayer, RbcMessage
from repro.types import Phase, StepValue

from ..conftest import make_member

MODERATE = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def rbc_streams(draw):
    """A sequence of (sender, RbcMessage) for one 4-process system."""
    events = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),                     # wire sender
                st.sampled_from([Phase.INIT, Phase.ECHO, Phase.READY]),
                st.integers(min_value=0, max_value=3),                     # originator
                st.sampled_from(["a", "b"]),
                st.integers(min_value=0, max_value=1),                     # instance
            ),
            max_size=80,
        )
    )
    return events


@given(rbc_streams())
# One acceptance per (instance, originator): two originators of one
# instance, each READY'd by a quorum, are two acceptances, not a double.
@example([(sender, Phase.READY, originator, "a", 0)
          for originator in (0, 1) for sender in (0, 1, 2)])
@MODERATE
def test_rbc_accepts_at_most_one_value_per_instance(events):
    process, _stub = make_member()
    layer = process.add_module(BroadcastLayer())
    accepted = {}

    def record(delivery):
        key = (delivery.instance, delivery.originator)
        assert key not in accepted, "double acceptance"
        accepted[key] = delivery.value

    layer.subscribe(record)
    for sender, phase, originator, value, instance in events:
        layer.on_message(sender, RbcMessage(("i", instance), originator, phase, value))
    # integrity asserted inside `record`


@given(rbc_streams())
@MODERATE
def test_rbc_acceptance_needs_a_ready_quorum(events):
    """However adversarial the stream, acceptance requires 2t+1 distinct
    READY senders for that exact value of that exact broadcast."""
    process, _stub = make_member()
    layer = process.add_module(BroadcastLayer())
    ready_senders = {}
    accepted = []

    layer.subscribe(accepted.append)
    for sender, phase, originator, value, instance in events:
        if phase is Phase.READY:
            ready_senders.setdefault(
                (("i", instance), originator, value), set()).add(sender)
        layer.on_message(sender, RbcMessage(("i", instance), originator, phase, value))
    for delivery in accepted:
        senders = ready_senders.get(
            (delivery.instance, delivery.originator, delivery.value), set())
        assert len(senders) >= 3  # 2t+1 at n=4, t=1


@given(rbc_streams())
@MODERATE
def test_rbc_replay_is_idempotent(events):
    """Processing the same stream twice yields the same acceptances and
    no duplicate sends beyond the first pass's waves."""
    process, stub = make_member()
    layer = process.add_module(BroadcastLayer())
    accepted = []
    layer.subscribe(accepted.append)
    for sender, phase, originator, value, instance in events:
        layer.on_message(sender, RbcMessage(("i", instance), originator, phase, value))
    first_accepts = list(accepted)
    first_sends = len(stub.sent)
    for sender, phase, originator, value, instance in events:
        layer.on_message(sender, RbcMessage(("i", instance), originator, phase, value))
    assert accepted == first_accepts
    assert len(stub.sent) == first_sends


@st.composite
def bv_streams(draw):
    events = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=1, max_value=2),   # round
                st.integers(min_value=0, max_value=1),   # bit
            ),
            max_size=60,
        )
    )
    return events


@given(bv_streams())
@MODERATE
def test_bv_delivery_needs_2t_plus_1_distinct_senders(events):
    process, _stub = make_member()
    bv = process.add_module(BinaryValueBroadcast())
    senders = {}
    for sender, round_, bit in events:
        senders.setdefault((round_, bit), set()).add(sender)
        bv.on_message(sender, BvValue(round_, bit))
    for round_ in (1, 2):
        for bit in bv.bin_values(round_):
            # Delivery implies 2t+1 = 3 distinct senders... counting the
            # module's own amplified VALUE, which the stub never loops
            # back; so at least 3 external ones were required.
            assert len(senders.get((round_, bit), set())) >= 3


@given(bv_streams())
@MODERATE
def test_bv_bin_values_monotone(events):
    process, _stub = make_member()
    bv = process.add_module(BinaryValueBroadcast())
    previous: dict[int, set] = {1: set(), 2: set()}
    for sender, round_, bit in events:
        bv.on_message(sender, BvValue(round_, bit))
        for r in (1, 2):
            current = bv.bin_values(r)
            assert previous[r] <= current
            previous[r] = current


@st.composite
def step_value_lists(draw):
    return draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),
                st.integers(min_value=0, max_value=1),
                st.booleans(),
            ),
            max_size=30,
        )
    )


@given(step_value_lists(), step_value_lists())
@MODERATE
def test_validator_confluence_under_interleaving(list_a, list_b):
    """Splitting one event stream across two validators in different
    interleavings converges to identical validated sets."""
    from repro.core.validation import StepValidator
    from repro.params import ProtocolParams
    from repro.types import Step

    params = ProtocolParams(7, 2)
    merged = [(1, Step.TWO, pid, StepValue(bit, False)) for pid, bit, _d in list_a]
    merged += [(1, Step.ONE, pid, StepValue(bit, False)) for pid, bit, _d in list_b]

    forward = StepValidator(params)
    interleaved = StepValidator(params)
    for round_, step, pid, value in merged:
        forward.add(round_, step, pid, value)
    # interleave: all step-1 first, then step-2 (a "nice" network)
    for round_, step, pid, value in sorted(merged, key=lambda e: int(e[1])):
        interleaved.add(round_, step, pid, value)
    for step in (Step.ONE, Step.TWO):
        assert forward.validated(1, step) == interleaved.validated(1, step)
