"""Apply transcoding matrices to multichannel WAV files.

Reads RIFF or RF64 WAV (plain or WAVE_FORMAT_EXTENSIBLE ``fmt ``) with
16/24/32-bit PCM or 32-bit IEEE float samples and writes 32-bit float WAV.
``apply_matrix_to_audio`` streams: it parses the input header, writes the
output header, then reads, mixes (float64 accumulation) and writes one
block of frames at a time, so memory does not grow with the file length.
When there are at least two blocks and the process may use more than one
CPU, the blocks are split between two workers: the calling thread takes
blocks 0, 2, 4, ... and one helper thread blocks 1, 3, 5, ...  Each
worker reads and writes its blocks at their own file offsets
(``os.preadv`` and ``os.pwrite``) through its own buffers, allocated once
per file, and every block goes through the same numpy calls, so the
output bytes do not depend on the split. PCM is mixed as unscaled
integers against the matrix times the power-of-two full-scale factor,
which gives the same bits as scaling the samples first. No dithering;
samples beyond full scale are counted, not clipped.
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .errors import AudioError, check_integer
from .matfile import atomic_output

BLOCK_FRAMES = 16384

_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# last 12 bytes of the KSDATAFORMAT_SUBTYPE GUID of a WAVE_FORMAT_EXTENSIBLE
# header, by byte order; its first 4 bytes hold the plain format tag
_GUID_TAILS = {"<": b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71",
               ">": b"\x00\x00\x00\x10\x80\x00\x00\xaa\x00\x38\x9b\x71"}
_SUPPORTED = (np.dtype("<i2"), np.dtype("<i4"), np.dtype("<f4"))
_U32_MAX = 0xFFFFFFFF


@dataclass(frozen=True)
class _WavData:
    """Layout of the samples of a parsed WAV file."""

    rate: int
    channels: int
    frames: int
    dtype: np.dtype  # decoded sample type: int16, int32 or float32
    width: int  # bytes per stored sample; 3 for packed 24-bit PCM
    offset: int  # file offset of the first sample


def _take(handle, n, fail):
    raw = handle.read(n)
    if len(raw) < n:
        raise fail("header ends early")
    return raw


def _parse_fmt(handle, size, end, fail):
    """The sample dtype, channel count and rate from a ``fmt `` body."""
    if size < 16:
        raise fail(f"fmt chunk of {size} bytes, expected at least 16")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack(
        end + "HHIIHH", _take(handle, 16, fail))
    used = 16
    if tag == _EXTENSIBLE and size >= 18:
        (extra,) = struct.unpack(end + "H", _take(handle, 2, fail))
        if extra < 22:
            raise fail(f"WAVE_FORMAT_EXTENSIBLE cbSize {extra}, expected 22")
        guid = _take(handle, 22, fail)[6:]
        used += 24
        if guid.endswith(_GUID_TAILS[end]):
            (tag,) = struct.unpack(end + "I", guid[:4])
    if tag not in (_PCM, _IEEE_FLOAT):
        raise fail(f"unknown wave format {tag:#06x}; expected PCM or "
                   "IEEE float")
    handle.seek(max(size - used, 0) + size % 2, os.SEEK_CUR)
    if tag == _PCM and byte_rate != rate * block_align:
        raise fail(f"byte rate {byte_rate} is not sample rate {rate} times "
                   f"block align {block_align}")
    if channels == 0 or block_align % channels:
        raise fail(f"block align {block_align} is not a multiple of "
                   f"{channels} channels")
    width = block_align // channels
    # the sample type follows the container width (block align over
    # channels); 24-bit samples widen to left-justified int32, so every
    # integer type scales by a power of two
    if tag == _PCM and 1 <= bits <= 8:
        name = "u1"
    elif tag == _PCM and width in (3, 5, 6, 7):
        name = f"{end}i{4 if width == 3 else 8}"
    elif tag == _PCM and bits <= 64 and width in (1, 2, 4, 8):
        name = f"{end}i{width}"
    elif tag == _IEEE_FLOAT and bits in (32, 64) and width in (2, 4, 8):
        name = f"{end}f{width}"
    else:
        raise fail(f"{bits}-bit samples in {width}-byte containers")
    return np.dtype(name), width, channels, rate


def _parse_header(handle, path) -> _WavData:
    """Read the chunks up to ``data``."""
    def fail(reason):
        return AudioError(f"unsupported WAV file {path}: {reason}")

    magic = _take(handle, 4, fail)
    if magic not in (b"RIFF", b"RIFX", b"RF64"):
        raise fail(f"file format {magic!r}, expected RIFF or RF64")
    end = ">" if magic == b"RIFX" else "<"
    _take(handle, 4, fail)
    form = _take(handle, 4, fail)
    if form != b"WAVE":
        raise fail(f"RIFF form type {form!r}, expected b'WAVE'")
    rf64_data_bytes = None
    if magic == b"RF64":
        if _take(handle, 4, fail) != b"ds64":
            raise fail("RF64 without a ds64 chunk")
        size, _, rf64_data_bytes = struct.unpack(
            "<IQQ", _take(handle, 20, fail))
        if size < 16:
            raise fail(f"ds64 chunk of {size} bytes, expected at least 16")
        handle.seek(size - 16, os.SEEK_CUR)
    fmt = None
    while True:
        chunk = handle.read(4)
        if len(chunk) < 4:
            raise fail("no data chunk")
        (size,) = struct.unpack(end + "I", _take(handle, 4, fail))
        if chunk == b"fmt ":
            fmt = _parse_fmt(handle, size, end, fail)
        elif chunk == b"data":
            break
        else:
            handle.seek(size + size % 2, os.SEEK_CUR)
    if fmt is None:
        raise fail("no fmt chunk before the data chunk")
    dtype, width, channels, rate = fmt
    if dtype not in _SUPPORTED:
        raise AudioError(
            f"unsupported sample format {dtype}; expected 16/24/32-bit "
            "PCM or 32-bit float"
        )
    if rf64_data_bytes is not None:
        size = rf64_data_bytes
    present = os.fstat(handle.fileno()).st_size - handle.tell()
    if size > present:
        raise AudioError(
            f"truncated WAV file {path}: the data chunk declares {size} "
            f"bytes but only {present} follow"
        )
    return _WavData(rate, channels, size // (channels * width), dtype, width,
                    handle.tell())


def _open_wav(path):
    """Open ``path`` and parse its header: (handle, layout)."""
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        raise AudioError(f"no such audio file: {path}") from None
    except OSError as exc:
        raise AudioError(
            f"cannot read audio file {path}: {exc.strerror}") from None
    try:
        return handle, _parse_header(handle, path)
    except BaseException:
        handle.close()
        raise


def _scale(wav: _WavData) -> float:
    """Factor from decoded samples to [-1, 1): 2**-(bits - 1) for PCM."""
    if wav.dtype.kind == "i":
        return 2.0 ** (1 - 8 * wav.dtype.itemsize)
    return 1.0


class _Buffers:
    """One worker's buffers for blocks of up to ``frames`` frames, reused
    by each of its blocks: the raw bytes, the masked words of 24-bit
    samples, the float64 samples, and their float64 and float32 mix into
    ``outputs`` channels."""

    def __init__(self, wav: _WavData, frames: int, outputs: int = 0):
        # 24-bit samples land one byte into ``raw``, so the 4-byte word at
        # every 3-byte step holds a sample in its top three bytes
        self.pad = int(wav.width == 3)
        self.raw = np.empty(frames * wav.channels * wav.width + self.pad,
                            dtype=np.uint8)
        self.words = (np.empty((frames, wav.channels), dtype=np.int32)
                      if self.pad else None)
        self.samples = np.empty((frames, wav.channels))
        self.mixed = np.empty((frames, outputs))
        self.mixed32 = np.empty((frames, outputs), dtype="<f4")


def _read_block(handle, wav: _WavData, start: int, frames: int,
                buffers: _Buffers) -> np.ndarray:
    """Frames ``start`` to ``start + frames``, frames x channels, as
    float64 views of ``buffers``; PCM stays unscaled (times
    ``_scale(wav)`` is in [-1, 1)).  The read is positioned, so it leaves
    the file position of ``handle`` alone."""
    pad, size = buffers.pad, frames * wav.channels * wav.width
    raw = buffers.raw[:size + pad]
    offset, done = wav.offset + start * wav.channels * wav.width, 0
    while done < size:
        try:
            n = os.preadv(handle.fileno(), [raw[pad + done:]], offset + done)
        except OSError as exc:
            raise AudioError(f"cannot read audio file {handle.name}: "
                             f"{exc.strerror}") from None
        if not n:
            raise AudioError(f"audio file {handle.name} ended while reading")
        done += n
    if pad:
        packed = np.ndarray((frames, wav.channels), wav.dtype, raw,
                            strides=(3 * wav.channels, 3))
        decoded = np.bitwise_and(packed, -256, out=buffers.words[:frames])
    else:
        decoded = raw.view(wav.dtype).reshape(frames, wav.channels)
    samples = buffers.samples[:frames]
    np.copyto(samples, decoded)
    return samples


def _write_at(fd: int, data: np.ndarray, offset: int) -> None:
    """Write the bytes of the contiguous ``data`` at ``offset`` of ``fd``."""
    raw, done = data.reshape(-1).view(np.uint8), 0
    while done < raw.size:
        done += os.pwrite(fd, raw[done:], offset + done)


def read_wav(path):
    """Load a WAV file as float64 in [-1, 1); returns (rate, frames x channels)."""
    handle, wav = _open_wav(path)
    with handle:
        samples = _read_block(handle, wav, 0, wav.frames,
                              _Buffers(wav, wav.frames))
    # a power of two, so the product is the quotient by 2**(bits - 1)
    samples *= _scale(wav)
    return wav.rate, samples


def _float32_header(rate: int, channels: int, frames: int) -> bytes:
    """Header of a 32-bit float WAV (format tag 3).

    ``fmt `` carries a zero cbSize and is followed by ``fact``; when the
    RIFF size does not fit 32 bits the file is RF64 with a ``ds64`` chunk
    and the 32-bit data size saturates.
    """
    block_align = 4 * channels
    if block_align > 0xFFFF or not 0 <= rate * block_align <= _U32_MAX:
        raise AudioError(f"cannot write {channels} channels at {rate} Hz "
                         "as a 32-bit float WAV header")
    data_bytes = frames * block_align
    fmt = struct.pack("<HHIIHHH", _IEEE_FLOAT, channels, rate,
                      rate * block_align, block_align, 32, 0)
    body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"fact" + struct.pack("<II", 4, min(frames, _U32_MAX))
            + b"data" + struct.pack("<I", min(data_bytes, _U32_MAX)))
    riff_bytes = 4 + len(body) + data_bytes
    if riff_bytes <= _U32_MAX:
        return b"RIFF" + struct.pack("<I", riff_bytes) + b"WAVE" + body
    ds64 = struct.pack("<IQQQI", 28, riff_bytes + 36, data_bytes, frames, 0)
    return b"RF64" + struct.pack("<I", _U32_MAX) + b"WAVEds64" + ds64 + body


def write_wav_float32(path, rate: int, data: np.ndarray) -> None:
    out = np.asarray(data, dtype="<f4")
    if out.ndim != 2:
        raise AudioError("audio data must be frames x channels")
    with atomic_output(path, "wb") as handle:
        handle.write(_float32_header(int(rate), out.shape[1], out.shape[0]))
        handle.write(np.ascontiguousarray(out))


@dataclass(frozen=True)
class ApplyResult:
    frames: int
    in_channels: int
    out_channels: int
    clipped_samples: int
    sample_rate: int


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def apply_matrix_to_audio(matrix, in_path, out_path,
                          block_frames: int = BLOCK_FRAMES) -> ApplyResult:
    """out[t, n] = sum_m matrix[n, m] * in[t, m], streamed block by block,
    on two workers when there are at least two blocks and two usable CPUs.

    The output appears at ``out_path`` only when every block is written;
    bad or truncated input fails before anything is written.
    """
    block_frames = check_integer(block_frames, "block_frames", minimum=1)
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise AudioError("transcoding matrix must be 2-D")
    if not np.isfinite(matrix).all():
        raise AudioError("transcoding matrix has non-finite entries")
    n_out, n_in = matrix.shape
    handle, wav = _open_wav(in_path)
    with handle:
        if wav.channels != n_in:
            raise AudioError(
                f"audio has {wav.channels} channels but the matrix consumes "
                f"{n_in}"
            )
        header = _float32_header(wav.rate, n_out, wav.frames)
        # PCM is mixed unscaled: the full-scale factor is a power of two,
        # so folding it into the matrix leaves every product and sum bit
        # for bit the same. That stops being exact for a nonzero entry
        # below 2**(bits-1) times the smallest normal float (|m| < 2**-991
        # for 32-bit PCM), whose folded value is subnormal and can lose
        # low bits.
        mt = (matrix * _scale(wav)).T
        starts = range(0, wav.frames, block_frames)
        workers = 2 if len(starts) > 1 and _cpu_count() > 1 else 1
        # allocated here, not by the helper thread: glibc would keep what
        # the helper frees in that thread's own arena after the command
        buffers = [_Buffers(wav, min(block_frames, wav.frames), n_out)
                   for _ in range(workers)]
        clipped = [0] * workers
        errors = []
        failed = threading.Event()
        with atomic_output(out_path, "wb") as out:
            out.write(header)
            out.flush()

            def work(worker):
                """Read, mix and write every ``workers``-th block from
                block ``worker`` on; on an error, keep it and stop the
                other worker at its next block."""
                own = buffers[worker]
                try:
                    for start in starts[worker::workers]:
                        if failed.is_set():
                            return
                        n = min(block_frames, wav.frames - start)
                        block = np.matmul(
                            _read_block(handle, wav, start, n, own), mt,
                            out=own.mixed[:n])
                        # written so that NaN also takes the counting branch
                        if n_out and not (block.min() >= -1.0
                                          and block.max() <= 1.0):
                            clipped[worker] += int(
                                np.count_nonzero(np.abs(block) > 1.0))
                        block32 = own.mixed32[:n]
                        np.copyto(block32, block)
                        _write_at(out.fileno(), block32,
                                  len(header) + start * 4 * n_out)
                except BaseException as exc:
                    errors.append(exc)
                    failed.set()

            helper = None
            if workers > 1:
                helper = threading.Thread(target=work, args=(1,),
                                          name="satx-apply")
                helper.start()
            try:
                work(0)
            finally:
                if helper is not None:
                    helper.join()
            if errors:
                raise errors[0]
    return ApplyResult(
        frames=wav.frames,
        in_channels=n_in,
        out_channels=n_out,
        clipped_samples=sum(clipped),
        sample_rate=wav.rate,
    )
