"""The benchmark's workloads: seeded inputs and one send + receive round trip.

One op is one send followed by one receive:

* send: carrier PGM bytes -> read_pgm -> embed -> rle_encode -> serialize
* receive: deserialize -> rle_decode -> extract -> write_pgm(restored)
  -> compare(carrier, restored)

``InProcess`` makes these calls as library calls; ``CliProcesses`` makes
them as four sequential ``python -m stegrle.cli`` processes. After each op,
outside the timed window, ``verify`` checks that the decoded image equals
the stego image, the recovered message equals the input and the restored
image equals the carrier bit for bit. Inputs are generated here from the
seed; the program only ever sees the generated bytes.
"""

from __future__ import annotations

import hashlib
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PAPER_MESSAGE = b"GRI pid:007"
PAPER_ROI = (1, 1, 60, 60)


class RoundTripError(Exception):
    """An op ran but its outputs do not invert its inputs."""


def pgm_p5(img: np.ndarray) -> bytes:
    height, width = img.shape
    return f"P5\n{width} {height}\n255\n".encode("ascii") + img.tobytes()


def pgm_p2(img: np.ndarray) -> bytes:
    height, width = img.shape
    rows = "\n".join(" ".join(map(str, row)) for row in img.tolist())
    return f"P2\n{width} {height}\n255\n{rows}\n".encode("ascii")


@dataclass(frozen=True)
class Inputs:
    carrier: np.ndarray  # the ground truth the restored image must equal
    carrier_bytes: bytes  # the PGM file the program is given
    roi: tuple[int, int, int, int]
    message: bytes

    def sha256(self) -> str:
        h = hashlib.sha256(f"{len(self.carrier_bytes)} {self.roi} {len(self.message)}\n".encode())
        h.update(self.carrier_bytes)
        h.update(self.message)
        return h.hexdigest()


def _capacity(sr, carrier: np.ndarray, roi) -> int:
    return len(sr.embedding_sites(carrier, sr.Rect(*roi)))


def _checked(sr, carrier, carrier_bytes, roi, message) -> Inputs:
    capacity = _capacity(sr, carrier, roi)
    if len(message) > capacity:
        raise ValueError(f"message of {len(message)} bytes exceeds capacity {capacity}")
    return Inputs(carrier, carrier_bytes, roi, message)


def paper_inputs(sr, seed: int) -> Inputs:
    """The paper's case; it has nothing to draw from the seed."""
    carrier = sr.synthetic_carrier(256, 256)
    return _checked(sr, carrier, pgm_p5(carrier), PAPER_ROI, PAPER_MESSAGE)


def fill_inputs(sr, seed: int) -> Inputs:
    """512x512 synthetic carrier, full ROI, seeded bytes filling every site."""
    carrier = sr.synthetic_carrier(512, 512)
    roi = (0, 0, 511, 511)
    capacity = _capacity(sr, carrier, roi)
    message = np.random.default_rng(seed).integers(1, 256, capacity, dtype=np.uint8)
    return Inputs(carrier, pgm_p5(carrier), roi, message.tobytes())


def noisy_inputs(sr, seed: int) -> Inputs:
    """512x512: zero top half, seeded noise in 1..255 below, sent as ASCII P2."""
    carrier = np.zeros((512, 512), dtype=np.uint8)
    carrier[256:] = np.random.default_rng(seed).integers(1, 256, (256, 512), dtype=np.uint8)
    return _checked(sr, carrier, pgm_p2(carrier), PAPER_ROI, PAPER_MESSAGE)


@dataclass
class Sent:
    img: np.ndarray
    stego: np.ndarray
    report: object
    stream: object
    container: bytes


@dataclass
class Received:
    decoded: np.ndarray
    message: bytes
    restored: np.ndarray
    restored_bytes: bytes
    quality: object


class InProcess:
    """Send and receive as library calls in this process."""

    def __init__(self, sr, inputs: Inputs, workdir: Path, env: dict) -> None:
        self.sr = sr
        self.inputs = inputs
        self.roi = sr.Rect(*inputs.roi)
        self.carrier_p5 = pgm_p5(inputs.carrier)

    def send(self, call) -> Sent:
        sr = self.sr
        img = call("image.read_pgm", sr.read_pgm, self.inputs.carrier_bytes)
        stego, report = call("stego.embed", sr.embed, img, self.roi, self.inputs.message)
        stream = call("rle.rle_encode", sr.rle_encode, stego)
        container = call("rle.serialize", sr.serialize, stream)
        return Sent(img, stego, report, stream, container)

    def receive(self, sent: Sent, call) -> Received:
        sr = self.sr
        stream = call("rle.deserialize", sr.deserialize, sent.container)
        decoded = call("rle.rle_decode", sr.rle_decode, stream)
        message, restored = call("stego.extract", sr.extract, decoded)
        restored_bytes = call("image.write_pgm", sr.write_pgm, restored)
        quality = call("metrics.compare", sr.compare, sent.img, restored)
        return Received(decoded, message, restored, restored_bytes, quality)

    def verify(self, sent: Sent, got: Received) -> int:
        """Raise RoundTripError unless the op inverted its inputs; return container bytes."""
        if not np.array_equal(got.decoded, sent.stego):
            raise RoundTripError("decoded image differs from stego image")
        if got.message != self.inputs.message:
            raise RoundTripError("recovered message differs from input")
        if not np.array_equal(got.restored, self.inputs.carrier):
            raise RoundTripError("restored image differs from carrier")
        if got.restored_bytes != self.carrier_p5 or got.quality.mse != 0:
            raise RoundTripError("written or compared restored image differs from carrier")
        return len(sent.container)

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_process(argv, env: dict, cwd: Path, stdout: Path, stderr: Path) -> tuple[int, int]:
    """Run one child to completion; return its exit code and peak RSS in KiB."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


class CliProcesses:
    """Send and receive as four sequential ``python -m stegrle.cli`` processes.

    embed and compress form the send; decompress and extract --verify form
    the receive. Files live in workdir, which the caller owns.
    """

    def __init__(self, sr, inputs: Inputs, workdir: Path, env: dict) -> None:
        self.inputs = inputs
        self.workdir = workdir
        self.env = env
        self.carrier_p5 = pgm_p5(inputs.carrier)
        self.peak_rss_kib = 0
        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / "carrier.pgm").write_bytes(inputs.carrier_bytes)
        (workdir / "message.txt").write_bytes(inputs.message.decode("latin-1").encode("utf-8"))

    def _cli(self, *args: str) -> None:
        argv = [sys.executable, "-m", "stegrle.cli", *args]
        out, err = self.workdir / f"{args[0]}.out", self.workdir / f"{args[0]}.err"
        code, rss_kib = run_process(argv, self.env, self.workdir, out, err)
        self.peak_rss_kib = max(self.peak_rss_kib, rss_kib)
        if code != 0:
            raise RoundTripError(f"stegrle {args[0]} exited {code}: {err.read_bytes()[-500:]!r}")

    def send(self, call) -> None:
        roi = ",".join(map(str, self.inputs.roi))
        call("cli.embed", self._cli, "embed", "--in", "carrier.pgm", "--out", "stego.pgm",
             "--roi", roi, "--message-file", "message.txt")
        call("cli.compress", self._cli, "compress", "--in", "stego.pgm", "--out", "stego.srle")

    def receive(self, sent, call) -> None:
        call("cli.decompress", self._cli, "decompress", "--in", "stego.srle", "--out", "decoded.pgm")
        call("cli.extract", self._cli, "extract", "--in", "decoded.pgm", "--out", "restored.pgm",
             "--verify", "carrier.pgm")

    def verify(self, sent, got) -> int:
        """Raise RoundTripError unless the op inverted its inputs; return container bytes."""
        files = self.workdir
        if (files / "decoded.pgm").read_bytes() != (files / "stego.pgm").read_bytes():
            raise RoundTripError("decoded image differs from stego image")
        out = (files / "extract.out").read_bytes().decode("utf-8")
        text, _, verdict = out.removeprefix("message: ").rpartition("\nverify mse: ")
        if text.encode("latin-1") != self.inputs.message:
            raise RoundTripError("recovered message differs from input")
        if (files / "restored.pgm").read_bytes() != self.carrier_p5 or not verdict.startswith("0\n"):
            raise RoundTripError("restored image differs from carrier")
        return (files / "stego.srle").stat().st_size

    def peak_rss_mib(self) -> float:
        return self.peak_rss_kib / 1024


@dataclass(frozen=True)
class Workload:
    name: str
    build: object  # (stegrle module, seed) -> Inputs
    kind: type  # InProcess or CliProcesses
    warmup: int  # untimed ops before measuring


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-cli", paper_inputs, CliProcesses, warmup=2),
        Workload("fill-512", fill_inputs, InProcess, warmup=2),
        Workload("noisy-p2-512", noisy_inputs, InProcess, warmup=3),
    )
}
