"""The gateway's one queue: FIFO and work conserving under device-bound
deferral.

A request bound to a device can only run on that device's slots, so a
dispatch pass sets aside (defers) the requests no free slot can take and
lets later ones pass.  Two properties hold after every pass, over drawn
fleets of device-bound slots and drawn arrivals, bindings and service
times:

(a) work conservation — no queued request waits while a free slot could
    take it;
(b) FIFO — no request starts before an earlier-submitted request that
    the slot it took could have taken.

A dispatch that put deferred requests back behind the ones it never
reached breaks (b): the next slot of the deferred request's device goes
to a later request bound to the same device.
"""

from hypothesis import given, settings, strategies as st

from repro.serving.gateway import (
    Gateway,
    GatewayConfig,
    GatewayRequest,
    RequestStatus,
)

DEVICES = (0, 1)

SUBMISSIONS = st.lists(
    st.tuples(
        st.integers(0, 100),                 # µs after the previous arrival
        st.sampled_from((None,) + DEVICES),  # the request's device binding
        st.integers(1, 500),                 # its service time, µs
    ),
    min_size=1,
    max_size=30,
)


class DeviceSlotExecutor:
    """Slots bound to devices; a request runs for the µs its payload says."""

    def __init__(self, slots: list[int]) -> None:
        self.slots = slots

    def execute(self, request: GatewayRequest, start_us: float):
        return float(request.payload), None


def _fits(slot_device: int, request: GatewayRequest) -> bool:
    return request.device_index is None or request.device_index == slot_device


@settings(max_examples=300)
@given(slots=st.lists(st.sampled_from(DEVICES), min_size=1, max_size=4),
       submissions=SUBMISSIONS)
def test_dispatch_is_fifo_and_work_conserving(slots, submissions):
    executor = DeviceSlotExecutor(slots)
    gateway = Gateway(
        executor,
        GatewayConfig(max_queue_depth=len(submissions)),
    )
    requests: list[GatewayRequest] = []
    started: list[tuple[GatewayRequest, int]] = []

    take_slot, dispatch, execute = (
        gateway._take_slot, gateway._dispatch, executor.execute
    )
    taken: list[int] = []

    def observed_take_slot(device_index):
        slot = take_slot(device_index)
        if slot is not None:
            taken.append(slot)
        return slot

    def observed_execute(request, start_us):
        started.append((request, taken.pop()))
        return execute(request, start_us)

    def checked_dispatch():
        dispatch()
        queued = [r for r in requests if r.status == RequestStatus.QUEUED]
        free = [slots[slot] for slot in gateway._free_slots]
        # (a) nothing queued fits a free slot.
        assert not [
            (r.request_id, device) for r in queued for device in free
            if _fits(device, r)
        ]
        # (b) whatever this pass started, nothing submitted before it
        # that its slot could have taken is still waiting.
        for request, slot in started:
            assert not [
                earlier.request_id for earlier in queued
                if earlier.request_id < request.request_id
                and _fits(slots[slot], earlier)
            ], (request.request_id, slots[slot])
        started.clear()

    gateway._take_slot = observed_take_slot
    gateway._dispatch = checked_dispatch
    executor.execute = observed_execute

    at_us = 0.0
    for index, (gap_us, device_index, service_us) in enumerate(submissions):
        at_us += gap_us
        requests.append(gateway.submit(
            index.to_bytes(2, "big"), service_us,
            at_us=at_us, device_index=device_index,
        ))
    gateway.drain()

    # Every request some slot can take ran to completion; the rest wait.
    for request in requests:
        runnable = any(_fits(device, request) for device in slots)
        assert request.status == (
            RequestStatus.COMPLETED if runnable else RequestStatus.QUEUED
        )
