import hashlib
import io
import json
import math
import os
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from segtta import fileio, phantom, pipeline
from segtta.fileio import (
    BadMagicError,
    BadMaskByteError,
    CrcMismatchError,
    TruncatedFileError,
    UnsupportedVersionError,
    VolumeFileError,
    read_volume,
    write_volume,
)
from segtta.optim import OptimizerProtocol
from segtta.volume import Mask, Volume


def random_volume(seed=0, dims=(8, 8, 8), spacing=(1.0, 0.5, 2.0)):
    rng = np.random.default_rng(seed)
    return Volume(rng.normal(size=dims), spacing)


class TestVolumeRoundTrip:
    def test_f64_bit_identical(self, tmp_path):
        v = random_volume()
        path = tmp_path / "vol.vol"
        write_volume(path, v)
        back = read_volume(path)
        assert isinstance(back, Volume)
        assert back.data.tobytes() == v.data.tobytes()
        assert back.spacing == v.spacing

    def test_write_read_write_is_byte_stable(self, tmp_path):
        v = random_volume(3)
        p1, p2 = tmp_path / "a.vol", tmp_path / "b.vol"
        write_volume(p1, v)
        write_volume(p2, read_volume(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_mask_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        m = Mask(rng.uniform(size=(6, 5, 4)) < 0.4, (1.0, 1.0, 1.5))
        path = tmp_path / "mask.vol"
        write_volume(path, m)
        back = read_volume(path)
        assert isinstance(back, Mask)
        assert np.array_equal(back.data, m.data)

    def test_f32_reads_back_as_float64(self, tmp_path):
        v = random_volume(7)
        path = tmp_path / "v32.vol"
        oracles.write_volume_f32(path, v)
        back = read_volume(path)
        assert back.data.dtype == np.float64
        assert np.allclose(back.data, v.data, atol=1e-6)

    def test_linear_order_is_x_fastest(self, tmp_path):
        arr = np.arange(8, dtype=np.float64).reshape(2, 2, 2)
        v = Volume(arr, (1, 1, 1))
        path = tmp_path / "order.vol"
        write_volume(path, v)
        raw = path.read_bytes()
        payload = np.frombuffer(raw[43:-4], dtype="<f8")
        assert list(payload) == [0.0, 4.0, 2.0, 6.0, 1.0, 5.0, 3.0, 7.0]


class TestVolumeErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.vol"
        path.write_bytes(b"NOPE" + bytes(60))
        with pytest.raises(BadMagicError):
            read_volume(path)

    def test_unsupported_version(self, tmp_path):
        v = random_volume()
        path = tmp_path / "x.vol"
        write_volume(path, v)
        raw = bytearray(path.read_bytes())
        raw[4:6] = (9).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedVersionError):
            read_volume(path)

    def test_corrupted_payload_byte(self, tmp_path):
        v = random_volume()
        path = tmp_path / "x.vol"
        write_volume(path, v)
        raw = bytearray(path.read_bytes())
        raw[50] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CrcMismatchError):
            read_volume(path)

    def test_truncation(self, tmp_path):
        v = random_volume()
        path = tmp_path / "x.vol"
        write_volume(path, v)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(TruncatedFileError):
            read_volume(path)

    @pytest.mark.parametrize("tag, dims, spacing, payload", [
        (2, (0, 2, 2), (1.0, 1.0, 1.0), b""),
        (2, (2, 1, 1), (1.0, 1.0, 1.0), np.array([0.0, np.nan], "<f8").tobytes()),
        (3, (1, 1, 1), (1.0, 0.0, 1.0), b"\x01"),
        (2, (1, 1, 1), (np.nan, 1.0, 1.0), np.zeros(1, "<f8").tobytes()),
    ], ids=["zero-dim", "nan-payload", "zero-spacing", "nan-spacing"])
    def test_valid_container_with_invalid_contents(self, tmp_path, tag, dims, spacing, payload):
        # header and CRC are well formed; only the grid or the values are not
        header = b"HDTV" + (1).to_bytes(2, "little") + bytes([tag])
        header += b"".join(n.to_bytes(4, "little") for n in dims)
        header += np.array(spacing, "<f8").tobytes()
        path = tmp_path / "x.vol"
        path.write_bytes(header + payload + zlib.crc32(payload).to_bytes(4, "little"))
        with pytest.raises(VolumeFileError, match="x.vol"):
            read_volume(path)

    def test_mask_byte_other_than_0_or_1(self, tmp_path):
        # a 2x2x2 mask with one byte set to 7 and a CRC that matches it
        payload = bytes([0, 1, 0, 7, 1, 0, 0, 1])
        header = b"HDTV" + (1).to_bytes(2, "little") + bytes([3])
        header += b"".join(n.to_bytes(4, "little") for n in (2, 2, 2))
        header += np.ones(3, "<f8").tobytes()
        path = tmp_path / "m.vol"
        path.write_bytes(header + payload + zlib.crc32(payload).to_bytes(4, "little"))
        with pytest.raises(BadMaskByteError, match="m.vol.*found 7"):
            read_volume(path)

    def test_missing_file_reports_path(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="ghost.vol"):
            read_volume(tmp_path / "ghost.vol")


# sha256 of the files written from layout_inputs(), pinned before write_volume
# converted and reordered its payload in one copy; the f32 files, pinned while
# write_volume still wrote tag 1, now come from the test oracle's writer
FILE_DIGESTS = {
    "f64": "72c8f92e084a0569eb211e53e844fa24d077d7d1f684d2f21e5fbd2ea8c49954",
    "f32": "4324f273a2a9e408f326e5257e5ec56b2f34ff6ec037f986d417e12ee0f11e90",
    "f64-strided": "9c138528756622e54018d4f63e20165817a1e34808438bd3c1e18751b2ad70ae",
    "f32-fortran": "4324f273a2a9e408f326e5257e5ec56b2f34ff6ec037f986d417e12ee0f11e90",
    "f64-transposed": "9a6f49c45428c2b6b62af0b6f3a0a1235fc62ebebaeab168dcdb85ba097945f8",
    "mask": "14388aabc030684ea1cdf8a2e73dc4cf6560d5174de00e4d1e1a4f5cadfe2bfa",
    "mask-strided": "f0c59fe3f63d4dacb2b89ceedcb9c25860d825be354505fff322bb9dead9971f",
}


def layout_inputs():
    """Volumes and masks from C, strided, Fortran-ordered and transposed
    arrays, each with the dtype tag it is written with; uniform draws are
    exact integer arithmetic, so the bytes do not depend on the platform's
    libm."""
    rng = np.random.default_rng(12)
    arr = rng.random((9, 6, 4)) * 20.0 - 10.0
    bits = rng.random((9, 6, 4)) < 0.4
    sp = (1.0, 0.5, 2.0)
    return {
        "f64": (Volume(arr, sp), 2),
        "f32": (Volume(arr, sp), 1),
        "f64-strided": (Volume(arr[::2, :, ::-1], sp), 2),
        "f32-fortran": (Volume(np.asfortranarray(arr), sp), 1),
        "f64-transposed": (Volume(arr.transpose(2, 0, 1), sp), 2),
        "mask": (Mask(bits, sp), 3),
        "mask-strided": (Mask(bits[1::2, ::-1, :], sp), 3),
    }


def write(path, v, tag):
    """``v`` written with dtype tag ``tag``; tag 1, which the library no
    longer writes, by the test oracle."""
    (oracles.write_volume_f32 if tag == 1 else write_volume)(path, v)


class TestVolumeLayout:
    @pytest.mark.parametrize("key", list(FILE_DIGESTS))
    def test_written_bytes_are_pinned(self, tmp_path, key):
        v, tag = layout_inputs()[key]
        path = tmp_path / "v.vol"
        write(path, v, tag)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == FILE_DIGESTS[key]

    @pytest.mark.parametrize("key", list(FILE_DIGESTS))
    def test_reads_are_c_contiguous_read_only_and_exact(self, tmp_path, key):
        v, tag = layout_inputs()[key]
        path = tmp_path / "v.vol"
        write(path, v, tag)
        back = read_volume(path)
        arr = back.data
        assert type(back) is type(v) and back.dims == v.dims and back.spacing == v.spacing
        assert arr.dtype == (np.bool_ if isinstance(v, Mask) else np.float64)
        assert arr.flags.c_contiguous and not arr.flags.writeable
        expected = v.data.astype(np.float32) if tag == 1 else v.data
        assert np.array_equal(arr, expected)


class TestStreamedRead:
    """The block reader against the whole-file reader it replaced."""

    @pytest.mark.parametrize("tag", [1, 2, 3])
    @pytest.mark.parametrize("nz", [1, 5, fileio.BLOCK_PLANES, fileio.BLOCK_PLANES + 1,
                                    2 * fileio.BLOCK_PLANES, 2 * fileio.BLOCK_PLANES + 7])
    def test_matches_the_whole_file_oracle(self, tmp_path, tag, nz):
        rng = np.random.default_rng(nz + 10 * tag)
        dims, sp = (7, 3, nz), (0.9, 1.0, 2.5)
        v = Mask(rng.random(dims) < 0.3, sp) if tag == 3 else Volume(rng.normal(size=dims), sp)
        path = tmp_path / "v.vol"
        write(path, v, tag)
        got, expected = read_volume(path), oracles.read_volume(path)
        assert type(got) is type(expected) and got.spacing == expected.spacing
        assert got.data.dtype == expected.data.dtype and got.dims == dims
        assert got.data.tobytes() == expected.data.tobytes()
        assert got.data.flags.c_contiguous and not got.data.flags.writeable

    @pytest.mark.parametrize("cut", [50, -2], ids=["in-payload", "in-crc"])
    def test_a_file_that_shrinks_after_the_size_check_raises(self, tmp_path, monkeypatch, cut):
        # the size check passes on the whole file; the file is then cut
        # short on disk, in the payload or in the CRC, before they are read
        path, raw = small_file(tmp_path)

        class ShrinksAfterTheHeader(io.FileIO):
            def read(self, size=-1):
                head = super().read(size)
                os.truncate(path, len(raw[:cut]))
                return head

        # unbuffered, so the payload read sees the file as it is on disk
        monkeypatch.setattr(fileio, "open", lambda p, mode: ShrinksAfterTheHeader(p, mode),
                            raising=False)
        with pytest.raises(TruncatedFileError, match="truncated while reading"):
            read_volume(path)

    def test_a_read_holds_one_block_besides_the_array(self, tmp_path):
        # the array and one staging block: Volume's finiteness check holds no
        # bool per voxel, and the whole file as bytes next to the array is 2x
        nz = 100
        v = Volume(np.random.default_rng(1).normal(size=(40, 30, nz)), (1.0, 1.0, 1.0))
        path = tmp_path / "v.vol"
        write_volume(path, v)
        tracemalloc.start()
        try:
            back = read_volume(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        payload = v.data.nbytes
        assert back.data.tobytes() == v.data.tobytes()
        assert peak < payload * (1 + fileio.BLOCK_PLANES / nz) + 16 * 1024


def small_file(tmp_path, tag=2):
    """A valid 2x3x2 file of the given tag, as its path and its bytes."""
    rng = np.random.default_rng(4)
    v = Mask(rng.random((2, 3, 2)) < 0.5, (1.0, 0.5, 2.0)) if tag == 3 else \
        Volume(rng.random((2, 3, 2)), (1.0, 0.5, 2.0))
    path = tmp_path / "s.vol"
    write(path, v, tag)
    return path, path.read_bytes()


class TestVolumeFuzz:
    """Damaged files raise a VolumeFileError subclass and nothing else."""

    @given(tag=st.sampled_from([1, 2, 3]), offset=st.integers(0, 18), value=st.integers(0, 255))
    @settings(max_examples=200, deadline=None)
    def test_changed_magic_version_tag_or_dims_byte_raises(self, tmp_path_factory, tag, offset, value):
        path, raw = small_file(tmp_path_factory.mktemp("f"), tag)
        assume(raw[offset] != value)
        path.write_bytes(raw[:offset] + bytes([value]) + raw[offset + 1:])
        with pytest.raises(VolumeFileError):
            read_volume(path)

    @given(offset=st.integers(19, 42), value=st.integers(0, 255))
    @settings(max_examples=100, deadline=None)
    def test_changed_spacing_byte_raises_or_keeps_the_payload(self, tmp_path_factory, offset, value):
        path, raw = small_file(tmp_path_factory.mktemp("f"))
        original = read_volume(path)
        path.write_bytes(raw[:offset] + bytes([value]) + raw[offset + 1:])
        try:
            back = read_volume(path)
        except VolumeFileError:
            return
        assert back.dims == original.dims
        assert back.data.tobytes() == original.data.tobytes()
        assert all(s > 0 and math.isfinite(s) for s in back.spacing)

    @given(dims=st.tuples(*[st.integers(0, 2**32 - 1)] * 3), tag=st.sampled_from([1, 2, 3]))
    @settings(max_examples=200, deadline=None)
    def test_huge_or_wrong_dims_raise_before_allocating(self, tmp_path_factory, dims, tag):
        payload = bytes(24)
        assume(dims[0] * dims[1] * dims[2] * fileio._DTYPE_TAGS[tag].itemsize != len(payload))
        header = b"HDTV" + (1).to_bytes(2, "little") + bytes([tag])
        header += b"".join(n.to_bytes(4, "little") for n in dims) + np.ones(3, "<f8").tobytes()
        path = tmp_path_factory.mktemp("f") / "d.vol"
        path.write_bytes(header + payload + zlib.crc32(payload).to_bytes(4, "little"))
        with pytest.raises(TruncatedFileError):
            read_volume(path)

    @given(dims=st.tuples(*[st.integers(1, 2**32 - 1)] * 2), zero_at=st.integers(0, 2),
           tag=st.sampled_from([1, 2, 3]))
    @settings(max_examples=100, deadline=None)
    def test_a_zero_dim_with_an_empty_payload_raises_at_once(self, tmp_path_factory, dims,
                                                             zero_at, tag):
        # the size and CRC checks pass on an empty payload; the zero dim is
        # rejected next, without a pass over nz planes or an array of dims
        dims = dims[:zero_at] + (0,) + dims[zero_at:]
        header = b"HDTV" + (1).to_bytes(2, "little") + bytes([tag])
        header += b"".join(n.to_bytes(4, "little") for n in dims) + np.ones(3, "<f8").tobytes()
        path = tmp_path_factory.mktemp("f") / "z.vol"
        path.write_bytes(header + zlib.crc32(b"").to_bytes(4, "little"))
        start = time.perf_counter()
        with pytest.raises(VolumeFileError, match="hold no voxels") as info:
            read_volume(path)
        assert time.perf_counter() - start < 1.0
        assert type(info.value) is VolumeFileError

    @pytest.mark.parametrize("tag", [1, 2, 3])
    def test_truncation_at_every_offset_raises(self, tmp_path, tag):
        path, raw = small_file(tmp_path, tag)
        for n in range(len(raw)):
            path.write_bytes(raw[:n])
            with pytest.raises(BadMagicError if n < 4 else TruncatedFileError):
                read_volume(path)

    @pytest.mark.parametrize("tag", [1, 2, 3])
    def test_every_payload_or_crc_byte_flip_raises(self, tmp_path, tag):
        path, raw = small_file(tmp_path, tag)
        for offset in range(43, len(raw)):
            for mask_bits in (0x01, 0x80, 0xFF):
                damaged = bytearray(raw)
                damaged[offset] ^= mask_bits
                path.write_bytes(bytes(damaged))
                with pytest.raises(CrcMismatchError):
                    read_volume(path)


@pytest.fixture(scope="module")
def report():
    case, _, _ = phantom.generate(phantom.scenario_spec("noise_island", seed=3))
    cfg = pipeline.PipelineConfig(protocol=OptimizerProtocol(steps=25))
    return pipeline.run_case(case, cfg)


class TestReportSerialization:

    def test_json_text_form(self):
        # sorted keys, two-space indent, a final newline
        assert fileio.dumps_json({"b": 1, "a": [0.1, None]}) == (
            '{\n  "a": [\n    0.1,\n    null\n  ],\n  "b": 1\n}\n')

    def test_report_round_trips_losslessly(self, report):
        text = fileio.dumps_report(report, include_timings=False)
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text

    def test_report_embeds_full_config(self, report):
        payload = json.loads(fileio.dumps_report(report))
        cfg = payload["config"]
        assert cfg["protocol"]["steps"] == 25
        assert set(cfg) == {"mode", "protocol", "parallel_hypotheses"}
        assert set(cfg["protocol"]) == {"steps"}
        assert payload["schema_version"] == 4

    def test_timings_excluded_on_request(self, report):
        with_t = json.loads(fileio.dumps_report(report, include_timings=True))
        without = json.loads(fileio.dumps_report(report, include_timings=False))
        assert with_t["timings_s"] is not None
        assert without["timings_s"] is None

    def test_phantom_spec_round_trip(self):
        spec = phantom.scenario_spec("under_segmented_mismatched", seed=12)
        back = fileio.spec_from_json(fileio.spec_to_json(spec), phantom.PhantomSpec)
        assert back == spec

    def test_spec_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            fileio.spec_from_json('{"scenario": "clean_confident", "seed": 0, "blobs": 3}',
                                  phantom.PhantomSpec)
