"""WAV reader and writer against scipy.io.wavfile, streaming, and bad input."""

import os
import re
import struct
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.io import wavfile

from satx import AudioError, ConfigError, SatxError, audio
from satx.audio import apply_matrix_to_audio, read_wav, write_wav_float32
from satx.cli import main
from satx.matfile import export_matrix, matrix_file

_PCM_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def chunk(cid, payload, end="<"):
    pad = b"\0" if len(payload) % 2 else b""
    return cid + struct.pack(end + "I", len(payload)) + payload + pad


def fmt_chunk(tag, channels, rate, width, bits, end="<", extension=b""):
    align = channels * width
    body = struct.pack(end + "HHIIHH", tag, channels, rate, rate * align,
                       align, bits)
    return chunk(b"fmt ", body + extension, end)


def extensible_fmt(sub_tag, channels, rate, width, bits):
    guid = struct.pack("<I", sub_tag) + _PCM_GUID_TAIL
    extension = struct.pack("<HHI", 22, bits, 0) + guid
    return fmt_chunk(0xFFFE, channels, rate, width, bits, extension=extension)


def riff(*chunks, magic=b"RIFF", end="<"):
    body = b"WAVE" + b"".join(chunks)
    return magic + struct.pack(end + "I", len(body)) + body


def rf64(fmt, samples):
    data = samples.tobytes()
    riff_bytes = 4 + 36 + len(fmt) + 8 + len(data)
    ds64 = struct.pack("<QQQI", riff_bytes, len(data), len(samples), 0)
    return (b"RF64" + b"\xff" * 4 + b"WAVE" + chunk(b"ds64", ds64) + fmt
            + b"data" + b"\xff" * 4 + data)


def pcm24_bytes(ints):
    return np.asarray(ints, dtype="<i4").reshape(-1, 1).view(np.uint8)[:, :3] \
        .tobytes()


@pytest.fixture
def pcm16(rng):
    return rng.integers(-2**15, 2**15, (300, 2)).astype("<i2")


class TestWriterAgainstScipy:
    @pytest.mark.parametrize("frames", [0, 1, 1000])
    def test_bytes_equal_scipy(self, tmp_path, rng, frames):
        data = rng.uniform(-1, 1, (frames, 3)).astype(np.float32)
        ours, theirs = tmp_path / "ours.wav", tmp_path / "theirs.wav"
        write_wav_float32(ours, 44100, data)
        wavfile.write(theirs, 44100, data)
        assert ours.read_bytes() == theirs.read_bytes()

    def test_rf64_header_above_4_gib(self, tmp_path):
        frames = 2**29 + 3  # 8-byte frames: 24 bytes over 4 GiB of data
        data_bytes = 8 * frames
        header = audio._float32_header(48000, 2, frames)
        small = audio._float32_header(48000, 2, 10)
        assert header[:16] == b"RF64" + b"\xff" * 4 + b"WAVEds64"
        riff_bytes = len(header) + data_bytes - 8
        assert struct.unpack("<IQQQI", header[16:48]) == (
            28, riff_bytes, data_bytes, frames, 0)
        assert header[48:74] == small[12:38]  # the same fmt chunk
        assert header[74:] == (b"fact" + struct.pack("<II", 4, frames)
                               + b"data" + b"\xff" * 4)
        # the reader follows the ds64 size and finds the data missing
        path = tmp_path / "huge.wav"
        path.write_bytes(header)
        with pytest.raises(AudioError, match=f"truncated.*{path.name}"):
            read_wav(path)


class TestReaderAgainstScipy:
    @staticmethod
    def _expected(path):
        rate, raw = wavfile.read(path)
        scale = {np.int16: 2.0**15, np.int32: 2.0**31, np.float32: 1.0}
        return rate, raw.astype(np.float64) / scale[raw.dtype.type]

    @pytest.mark.parametrize("kind", ["pcm16", "pcm32", "float32"])
    def test_scipy_written(self, tmp_path, rng, kind):
        data = {
            "pcm16": lambda: rng.integers(-2**15, 2**15, (500, 3), np.int16),
            "pcm32": lambda: rng.integers(-2**31, 2**31, (500, 3), np.int32),
            "float32": lambda: rng.uniform(-1, 1, (500, 3)).astype(np.float32),
        }[kind]()
        path = tmp_path / f"{kind}.wav"
        wavfile.write(path, 22050, data)
        rate, want = self._expected(path)
        got_rate, got = read_wav(path)
        assert got_rate == rate == 22050
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("layout", [
        "pcm24", "extensible_pcm16", "extensible_float32", "odd_list", "rf64",
    ])
    def test_hand_built(self, tmp_path, rng, pcm16, layout):
        floats = rng.uniform(-1, 1, (300, 2)).astype("<f4")
        ints24 = rng.integers(-2**23, 2**23, (300, 2))
        fmt16 = fmt_chunk(1, 2, 16000, 2, 16)
        raw = {
            "pcm24": lambda: riff(fmt_chunk(1, 2, 16000, 3, 24),
                                  chunk(b"data", pcm24_bytes(ints24))),
            "extensible_pcm16": lambda: riff(
                extensible_fmt(1, 2, 16000, 2, 16),
                chunk(b"data", pcm16.tobytes())),
            "extensible_float32": lambda: riff(
                extensible_fmt(3, 2, 16000, 4, 32),
                chunk(b"data", floats.tobytes())),
            "odd_list": lambda: riff(fmt16, chunk(b"LIST", b"INFOx"),
                                     chunk(b"data", pcm16.tobytes())),
            "rf64": lambda: rf64(fmt16, pcm16),
        }[layout]()
        path = tmp_path / f"{layout}.wav"
        path.write_bytes(raw)
        rate, want = self._expected(path)
        got_rate, got = read_wav(path)
        assert got_rate == rate == 16000
        assert got.shape == (300, 2)
        np.testing.assert_array_equal(got, want)

    def test_pcm24_full_scale(self, tmp_path):
        path = tmp_path / "edges.wav"
        ints = [-2**23, 2**23 - 1, -1, 0]
        path.write_bytes(riff(fmt_chunk(1, 2, 8000, 3, 24),
                              chunk(b"data", pcm24_bytes(ints))))
        _, got = read_wav(path)
        assert got[0, 0] == -1.0
        np.testing.assert_array_equal(
            got.ravel(), np.array(ints, dtype=np.float64) / 2.0**23)


def _written(path, frames, channels):
    """Samples of a float32 WAV, frames x channels even with no frames."""
    _, data = wavfile.read(path)
    assert data.dtype == np.float32
    return data.reshape(frames, channels)


def _pcm_file(path, kind, samples):
    """Write integer or float ``samples`` as a ``kind`` WAV file."""
    if kind == "pcm24":
        path.write_bytes(riff(fmt_chunk(1, samples.shape[1], 8000, 3, 24),
                              chunk(b"data", pcm24_bytes(samples))))
    else:
        wavfile.write(path, 8000, samples)


class TestMix:
    # Dyadic matrix entries keep every product and sum exact, so the
    # reference below is the same bits whatever order BLAS sums in.
    _FULL_SCALE = {"pcm16": 2.0**15, "pcm24": 2.0**23, "pcm32": 2.0**31,
                   "float32": 1.0}

    @staticmethod
    def _samples(rng, kind, frames):
        if kind == "float32":
            return rng.uniform(-1, 1, (frames, 3)).astype(np.float32)
        low, dtype = {"pcm16": (-2**15, np.int16),
                      "pcm24": (-2**23, np.int32),
                      "pcm32": (-2**31, np.int32)}[kind]
        edges = np.array([[low, -low - 1, 0]], dtype=dtype)
        return np.concatenate(
            [edges, rng.integers(low, -low, (frames, 3), dtype)])[:frames]

    @pytest.mark.parametrize("kind", ["pcm16", "pcm24", "pcm32", "float32"])
    def test_bit_exact_for_every_block_size(self, tmp_path, rng, kind):
        matrix = rng.integers(-96, 97, (2, 3)) / 64.0
        for frames in (0, 40):
            samples = self._samples(rng, kind, frames)
            path = tmp_path / f"{kind}_{frames}.wav"
            _pcm_file(path, kind, samples)
            x = samples.astype(np.float64) / self._FULL_SCALE[kind]
            want = x @ matrix.T
            for block in sorted({1, 7, frames, frames + 1} - {0}):
                out = tmp_path / "out.wav"
                result = apply_matrix_to_audio(matrix, path, out,
                                               block_frames=block)
                np.testing.assert_array_equal(
                    _written(out, frames, 2), want.astype(np.float32))
                assert result.frames == frames
                assert result.clipped_samples == np.count_nonzero(
                    np.abs(want) > 1.0)

    @pytest.mark.parametrize("kind", ["pcm16", "float32"])
    def test_clip_count_at_full_scale(self, tmp_path, kind):
        # the float64 mix is exactly +-1 in the first two channels and one
        # ulp beyond in the last two, which float32 rounds back to +-1
        half = {"pcm16": np.array([[2**14, -2**14]], np.int16),
                "float32": np.array([[0.5, -0.5]], np.float32)}[kind]
        above = np.nextafter(2.0, 3.0)
        matrix = np.array([[2.0, 0], [0, 2.0], [above, 0], [0, above]])
        path, out = tmp_path / "in.wav", tmp_path / "out.wav"
        wavfile.write(path, 8000, np.repeat(half, 5, axis=0))
        result = apply_matrix_to_audio(matrix, path, out, block_frames=2)
        assert result.clipped_samples == 2 * 5
        np.testing.assert_array_equal(
            _written(out, 5, 4), np.tile([1, -1, 1, -1], (5, 1)))

    def test_nan_sample_does_not_hide_clipping(self, tmp_path):
        path, out = tmp_path / "in.wav", tmp_path / "out.wav"
        wavfile.write(path, 8000, np.array([[np.nan], [0.75]], np.float32))
        result = apply_matrix_to_audio([[2.0]], path, out)
        assert result.clipped_samples == 1


class TestBadInput:
    @pytest.mark.parametrize("dtype,shown", [
        (np.uint8, "uint8"), (np.float64, "float64"), (np.int64, "int64"),
    ])
    def test_unsupported_sample_format(self, tmp_path, dtype, shown):
        path = tmp_path / "in.wav"
        wavfile.write(path, 8000, np.zeros((10, 2), dtype=dtype))
        message = (f"unsupported sample format {shown}; expected 16/24/32-bit "
                   "PCM or 32-bit float")
        with pytest.raises(AudioError, match=re.escape(message)):
            read_wav(path)

    def test_big_endian_rifx(self, tmp_path, pcm16):
        path = tmp_path / "rifx.wav"
        samples = pcm16.astype(">i2").tobytes()
        path.write_bytes(riff(fmt_chunk(1, 2, 8000, 2, 16, end=">"),
                              chunk(b"data", samples, ">"),
                              magic=b"RIFX", end=">"))
        with pytest.raises(AudioError, match="unsupported sample format >i2"):
            read_wav(path)

    @pytest.mark.parametrize("chunks,reason", [
        ((), "no data chunk"),
        ((chunk(b"data", b"\0" * 8),), "no fmt chunk"),
        ((chunk(b"data", b"\0" * 8), fmt_chunk(1, 2, 8000, 2, 16)),
         "no fmt chunk"),
        ((chunk(b"fmt ", struct.pack("<HHIIHH", 1, 2, 8000, 24000, 3, 16)),
          chunk(b"data", b"\0" * 12)), "block align 3"),
        ((chunk(b"fmt ", b"\x01\x00" * 4),), "fmt chunk of 8 bytes"),
    ])
    def test_malformed_header(self, tmp_path, chunks, reason):
        path = tmp_path / "bad.wav"
        path.write_bytes(riff(*chunks))
        with pytest.raises(AudioError, match=reason):
            read_wav(path)

    def test_truncated_data_fails_before_writing(self, tmp_path, pcm16):
        path = tmp_path / "short.wav"
        path.write_bytes(riff(fmt_chunk(1, 2, 8000, 2, 16),
                              chunk(b"data", pcm16.tobytes()))[:-10])
        out = tmp_path / "out.wav"
        with pytest.raises(AudioError,
                           match=f"truncated WAV file .*{path.name}.* 1200 "):
            apply_matrix_to_audio(np.eye(2), path, out)
        assert sorted(os.listdir(tmp_path)) == ["short.wav"]
        export_matrix(matrix_file(np.eye(2)), tmp_path / "id.smx")
        assert main(["apply", "--matrix", str(tmp_path / "id.smx"),
                     "--in", str(path), "--outfile", str(out)]) == 2
        assert not out.exists()

    def test_failure_mid_stream_leaves_old_output(self, tmp_path, pcm16,
                                                  monkeypatch):
        path = tmp_path / "in.wav"
        wavfile.write(path, 8000, pcm16)
        out = tmp_path / "out.wav"
        out.write_bytes(b"previous")
        caller, threads = threading.get_ident(), threading.active_count()

        def failing(handle, wav, start, frames, buffers):
            if start == 50 * failing_block:
                failed_on.append(threading.get_ident())
                raise AudioError("read failed")
            return read_block(handle, wav, start, frames, buffers)

        read_block = audio._read_block
        monkeypatch.setattr(audio, "_read_block", failing)
        monkeypatch.setattr(audio, "_cpu_count", lambda: 2)
        # 6 blocks of 50 frames: the calling thread mixes the even ones and
        # the helper thread the odd ones
        for failing_block, on_caller in ((2, True), (3, False)):
            failed_on = []
            with pytest.raises(AudioError, match="^read failed$"):
                apply_matrix_to_audio(np.eye(2), path, out, block_frames=50)
            assert len(failed_on) == 1
            assert (failed_on[0] == caller) == on_caller
            assert out.read_bytes() == b"previous"
            assert sorted(os.listdir(tmp_path)) == ["in.wav", "out.wav"]
            assert threading.active_count() == threads

    def test_short_read_names_the_input(self, tmp_path, pcm16):
        path = tmp_path / "in.wav"
        wavfile.write(path, 8000, pcm16)
        handle, wav = audio._open_wav(path)
        with handle:
            os.truncate(path, wav.offset + 10)
            with pytest.raises(AudioError, match=f"audio file .*{path.name} "
                                                 "ended while reading"):
                audio._read_block(handle, wav, 0, wav.frames,
                                  audio._Buffers(wav, wav.frames))

    def test_unwritable_output_names_it(self, tmp_path, pcm16, capsys):
        path = tmp_path / "in.wav"
        wavfile.write(path, 8000, pcm16)
        out = tmp_path / "missing" / "out.wav"
        with pytest.raises(ConfigError, match=f"^cannot write {out}: No such "
                                              "file or directory$"):
            apply_matrix_to_audio(np.eye(2), path, out)
        export_matrix(matrix_file(np.eye(2)), tmp_path / "id.smx")
        assert main(["apply", "--matrix", str(tmp_path / "id.smx"),
                     "--in", str(path), "--outfile", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: No such file or directory\n")
        assert sorted(os.listdir(tmp_path)) == ["id.smx", "in.wav"]

    @pytest.mark.parametrize("block_frames", [-5, 0, 2.5, True, "7"])
    def test_block_frames_checked_before_opening(self, tmp_path,
                                                 block_frames):
        out = tmp_path / "out.wav"
        with pytest.raises(SatxError, match="^block_frames (expected an "
                                            "integer|must be >= 1)$"):
            apply_matrix_to_audio(np.eye(2), tmp_path / "missing.wav", out,
                                  block_frames=block_frames)
        assert not out.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix(self, tmp_path, pcm16, value):
        path = tmp_path / "in.wav"
        wavfile.write(path, 8000, pcm16)
        out = tmp_path / "out.wav"
        with pytest.raises(AudioError, match="non-finite"):
            apply_matrix_to_audio([[1.0, value]], path, out)
        assert not out.exists()

    def test_output_mode_follows_umask(self, tmp_path, pcm16):
        path = tmp_path / "in.wav"
        wavfile.write(path, 8000, pcm16)
        old = os.umask(0o027)
        try:
            apply_matrix_to_audio(np.eye(2), path, tmp_path / "out.wav")
        finally:
            os.umask(old)
        assert (tmp_path / "out.wav").stat().st_mode & 0o777 == 0o640


_BASE_PCM = np.arange(-40, 40, dtype="<i2").reshape(40, 2) * 800
_BASE = riff(fmt_chunk(1, 2, 8000, 2, 16), chunk(b"LIST", b"INFOx"),
             chunk(b"data", _BASE_PCM.tobytes()))
_FMT = slice(20, 36)  # the 16 fixed bytes of the fmt body


def _insert_chunk(args):
    where, cid, size, payload = args
    cut = (12, 36, 50)[where]  # after WAVE, after fmt, after LIST
    return _BASE[:cut] + cid + struct.pack("<I", size) + payload + _BASE[cut:]


def _flip_fmt_bits(bits):
    raw = bytearray(_BASE)
    for bit in bits:
        raw[_FMT.start + bit // 8] ^= 1 << (bit % 8)
    return bytes(raw)


_MUTATED = st.one_of(
    st.integers(0, len(_BASE) - 1).map(lambda n: _BASE[:n]),
    st.tuples(st.integers(0, 2), st.binary(min_size=4, max_size=4),
              st.integers(0, 2**32 - 1), st.binary(max_size=16))
    .map(_insert_chunk),
    st.lists(st.integers(0, 8 * 16 - 1), min_size=1, max_size=4)
    .map(_flip_fmt_bits),
)


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(raw=_MUTATED)
    def test_reader_fails_only_with_audio_error(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.wav")
            with open(path, "wb") as handle:
                handle.write(raw)
            try:
                channels = read_wav(path)[1].shape[1]
            except AudioError:
                channels = None
            matrix = os.path.join(tmp, "m.smx")
            export_matrix(matrix_file(np.eye(2)), matrix)
            out = os.path.join(tmp, "out.wav")
            code = main(["apply", "--matrix", matrix, "--in", path,
                         "--outfile", out])
            assert code in (0, 2)
            assert code == 2 or channels == 2
            assert os.path.exists(out) == (code == 0)


class TestStreaming:
    def test_peak_memory_flat_in_file_length(self, tmp_path, rng):
        rate, channels, block = 8000, 16, 1024
        matrix = rng.normal(size=(2, channels)) * 0.1
        paths = {}
        for seconds in (2, 20):
            paths[seconds] = tmp_path / f"in{seconds}.wav"
            pcm = rng.integers(-2**15, 2**15, (seconds * rate, channels),
                               np.int16)
            wavfile.write(paths[seconds], rate, pcm)
        del pcm
        out = tmp_path / "out.wav"
        apply_matrix_to_audio(matrix, paths[2], out, block_frames=block)
        peaks = {}
        for seconds, path in paths.items():
            tracemalloc.start()
            apply_matrix_to_audio(matrix, path, out, block_frames=block)
            peaks[seconds] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert abs(peaks[20] - peaks[2]) < block * channels * 8
        assert peaks[2] < 2 * rate * channels * 8 / 4


class TestWorkers:
    @staticmethod
    def _apply(monkeypatch, cpus, path, out, matrix):
        """Apply on ``cpus`` CPUs, then undo every monkeypatch; returns
        the result and the blocks read off the calling thread."""
        caller, threads = threading.get_ident(), threading.active_count()
        off_caller = []

        def spy(handle, wav, start, frames, buffers):
            if threading.get_ident() != caller:
                off_caller.append(start)
            return read_block(handle, wav, start, frames, buffers)

        read_block = audio._read_block
        monkeypatch.setattr(audio, "_read_block", spy)
        monkeypatch.setattr(audio, "_cpu_count", lambda: cpus)
        result = apply_matrix_to_audio(matrix, path, out, block_frames=7)
        monkeypatch.undo()
        assert threading.active_count() == threads
        return result, sorted(off_caller)

    def test_one_and_two_workers_write_the_same_bytes(self, tmp_path, rng,
                                                      monkeypatch):
        # 5 blocks of 7 frames, the last one short; full-scale samples in
        # blocks 0 and 4 (calling thread) and 1 (helper) clip
        samples = rng.integers(-2**13, 2**13, (33, 3), np.int16)
        samples[[2, 9, 30], 0] = [-2**15, 2**15 - 1, -2**15]
        matrix = np.array([[1.5, 0.25, -0.5], [0.5, 0.5, 0.5]])
        path = tmp_path / "in.wav"
        wavfile.write(path, 8000, samples)
        want = (samples / 2.0**15) @ matrix.T
        outs = {}
        for cpus in (1, 2):
            outs[cpus] = tmp_path / f"out{cpus}.wav"
            result, off_caller = self._apply(monkeypatch, cpus, path,
                                             outs[cpus], matrix)
            assert off_caller == ([] if cpus == 1 else [7, 21])
            assert result.clipped_samples == np.count_nonzero(
                np.abs(want) > 1.0) == 3
            np.testing.assert_array_equal(_written(outs[cpus], 33, 2),
                                          want.astype(np.float32))
        assert outs[1].read_bytes() == outs[2].read_bytes()

    def test_a_failure_stops_the_other_worker(self, tmp_path, pcm16,
                                              monkeypatch):
        # the helper fails on its first block (1) once the calling thread
        # has reached block 2, past its check for a failure; the calling
        # thread waits there until the helper has ended, then stops
        # before block 4
        path, out = tmp_path / "in.wav", tmp_path / "out.wav"
        wavfile.write(path, 8000, pcm16[:33])
        starts, helper = [], []
        reached, failing = threading.Event(), threading.Event()

        def spy(handle, wav, start, frames, buffers):
            starts.append(start)
            if start == 7:
                assert reached.wait(10)
                helper.append(threading.current_thread())
                failing.set()
                raise AudioError("read failed")
            if start == 14:
                reached.set()
                assert failing.wait(10)
                helper[0].join(10)
                assert not helper[0].is_alive()
            return read_block(handle, wav, start, frames, buffers)

        read_block = audio._read_block
        monkeypatch.setattr(audio, "_read_block", spy)
        monkeypatch.setattr(audio, "_cpu_count", lambda: 2)
        with pytest.raises(AudioError, match="^read failed$"):
            apply_matrix_to_audio(np.eye(2), path, out, block_frames=7)
        assert sorted(starts) == [0, 7, 14]
        assert os.listdir(tmp_path) == ["in.wav"]

    def test_partial_reads_and_writes_resume(self, tmp_path, rng,
                                             monkeypatch):
        samples = rng.integers(-2**15, 2**15, (33, 3), np.int16)
        matrix = rng.integers(-64, 65, (2, 3)) / 64.0
        path, whole = tmp_path / "in.wav", tmp_path / "whole.wav"
        wavfile.write(path, 8000, samples)
        self._apply(monkeypatch, 2, path, whole, matrix)
        # at most 5 bytes a call
        preadv, pwrite = os.preadv, os.pwrite
        monkeypatch.setattr(os, "preadv", lambda fd, buffers, offset: preadv(
            fd, [buffers[0][:5]], offset))
        monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: pwrite(
            fd, data[:5], offset))
        pieces = tmp_path / "pieces.wav"
        self._apply(monkeypatch, 2, path, pieces, matrix)
        assert pieces.read_bytes() == whole.read_bytes()
