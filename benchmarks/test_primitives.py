"""Micro-benchmarks of the substrate primitives (real Python wall-clock).

Unlike the figure benchmarks (which measure *simulated* time), these time the
actual Python implementation of the hot primitives — linear-memory copies,
pipe operations, Unix-socket IPC, the codecs and one whole data-path
calibration per mode — so regressions in the reproduction's own code are
caught by pytest-benchmark.
"""

import pytest

from repro.experiments.environment import build_pair_setup
from repro.kernel.kernel import Kernel
from repro.kernel.pipes import Pipe
from repro.kernel.sockets import UnixSocketPair
from repro.payload import Payload
from repro.serialization.codec import BinaryFrameCodec, StringCodec
from repro.sim.ledger import CostLedger
from repro.wasm.linear_memory import LinearMemory

PAYLOAD = Payload.random(256 * 1024, seed=99)


def test_linear_memory_store_and_read(benchmark):
    memory = LinearMemory(initial_pages=8, max_pages=1024)

    def run():
        address = memory.store_payload(PAYLOAD)
        data = memory.read_payload(address, PAYLOAD.size)
        memory.deallocate(address)
        return data

    result = benchmark(run)
    PAYLOAD.require_match(result)


def test_pipe_vmsplice_and_drain(benchmark):
    kernel = Kernel(ledger=CostLedger())
    process = kernel.create_process("shim")
    pipe = Pipe(kernel, capacity=PAYLOAD.size)

    def run():
        pipe.vmsplice_in(process, PAYLOAD)
        return pipe.pop_buffer(process).payload

    result = benchmark(run)
    PAYLOAD.require_match(result)


def test_unix_socket_round_trip(benchmark):
    kernel = Kernel(ledger=CostLedger())
    sender = kernel.create_process("a")
    receiver = kernel.create_process("b")
    socket = UnixSocketPair(kernel)
    socket.connect(sender, receiver)

    def run():
        socket.send(sender, PAYLOAD)
        return socket.recv(receiver)

    result = benchmark(run)
    PAYLOAD.require_match(result)


def test_string_codec_round_trip(benchmark):
    codec = StringCodec()

    def run():
        return codec.decode(codec.encode(PAYLOAD))

    result = benchmark(run)
    PAYLOAD.require_match(result)


def test_binary_codec_round_trip(benchmark):
    codec = BinaryFrameCodec()

    def run():
        return codec.decode(codec.encode(PAYLOAD))

    result = benchmark(run)
    PAYLOAD.require_match(result)


#: Modelled latency of one calibration at a 256 KiB payload, per mode (and
#: the placement the mode runs in).  The cases time the host cost of the
#: whole data path and pin its output; none gates on time.
CALIBRATION_LATENCY_S = {
    ("roadrunner-user", False): 0.00015115657552083333,
    ("roadrunner-kernel", False): 0.0005511323567708333,
    ("roadrunner-network", True): 0.004371868956473214,
    ("runc-http", False): 0.005536764800637998,
    ("wasmedge-http", False): 0.026320612869835384,
}

CALIBRATION_PAYLOAD = Payload.virtual(256 * 1024)


@pytest.mark.parametrize(
    "case",
    sorted(CALIBRATION_LATENCY_S),
    ids=lambda case: "%s-%s" % (case[0], "inter" if case[1] else "intra"),
)
def test_data_path_calibration(benchmark, case):
    mode, internode = case

    def run():
        setup = build_pair_setup(mode, internode=internode)
        return setup.invoker.invoke(setup.workflow, CALIBRATION_PAYLOAD).total_latency_s

    assert benchmark(run) == CALIBRATION_LATENCY_S[case]
