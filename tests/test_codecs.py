"""Pure-stdlib media codecs (ops/codecs.py) + real-decode multimodal
stages.  Roundtrips are exact: encoder and decoder are independent code
paths over the published formats."""
import struct
import zlib

import numpy as np
import pyarrow as pa
import pytest

from pdf_extract_ray.ops.codecs import (decode_bmp, decode_png, decode_wav,
                                        encode_bmp, encode_png, encode_wav,
                                        sniff_media)


def _filter_rows(rows, bpp):
    """PNG-filter a (h, stride) uint8 raster, cycling filter types 0-4
    over the scanlines -> the uncompressed IDAT payload."""
    prev = np.zeros(rows.shape[1], dtype=np.int64)
    out = b""
    for y, raw in enumerate(rows):
        line = raw.astype(np.int64)
        f = y % 5
        enc = np.zeros_like(line)
        for i in range(len(line)):
            left = line[i - bpp] if i >= bpp else 0
            up = prev[i]
            ul = prev[i - bpp] if i >= bpp else 0
            if f == 0:
                pred = 0
            elif f == 1:
                pred = left
            elif f == 2:
                pred = up
            elif f == 3:
                pred = (left + up) >> 1
            else:
                p = left + up - ul
                d = (abs(p - left), abs(p - up), abs(p - ul))
                pred = (left if d[0] <= d[1] and d[0] <= d[2]
                        else (up if d[1] <= d[2] else ul))
            enc[i] = (line[i] - pred) & 0xFF
        out += bytes([f]) + bytes(enc.astype(np.uint8))
        prev = line
    return out


def _png(ihdr: bytes, raw: bytes) -> bytes:
    def chunk(ct, payload):
        crc = zlib.crc32(ct + payload) & 0xFFFFFFFF
        return (struct.pack(">I", len(payload)) + ct + payload
                + struct.pack(">I", crc))

    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(raw)) + chunk(b"IEND", b""))


def _img(shape, seed=3):
    return np.random.RandomState(seed).randint(0, 256, size=shape,
                                               dtype=np.uint8)


class TestCodecs:
    def test_png_roundtrip_all_color_types(self):
        for shape in [(5, 7, 3), (4, 4, 1), (3, 9, 4), (2, 2, 2)]:
            img = _img(shape)
            back = decode_png(encode_png(img))
            assert back.shape == img.shape
            assert (back == img).all()

    def test_png_filtered_scanlines(self):
        # decoder must handle Sub/Up/Average/Paeth, not just filter 0, at
        # every left-neighbour distance: 1 (gray), 3 (RGB), 4 (RGBA) and
        # 6 bytes (16-bit RGB, decoded to its high bytes)
        for shape, depth in [((8, 6, 3), 8), ((7, 9, 1), 8), ((6, 5, 4), 8),
                             ((5, 40, 3), 8), ((6, 7, 3), 16)]:
            h, w, c = shape
            rs = np.random.RandomState(h * w + c + depth)
            dtype = ">u2" if depth == 16 else np.uint8
            samples = rs.randint(0, 1 << depth, size=shape).astype(dtype)
            rows = samples.reshape(h, -1).view(np.uint8)
            ihdr = struct.pack(">IIBBBBB", w, h, depth,
                               {1: 0, 3: 2, 4: 6}[c], 0, 0, 0)
            data = _png(ihdr, _filter_rows(rows, c * depth // 8))
            want = (samples >> 8).astype(np.uint8) if depth == 16 else samples
            assert (decode_png(data) == want).all(), (shape, depth)

    def test_png_raster_cap(self):
        # a header whose raster is just over 1 << 26 bytes is refused
        # before any inflate
        w = 4096
        h = (1 << 26) // (w * 4 + 1) + 1
        ihdr = struct.pack(">IIBBBBB", w, h, 8, 6, 0, 0, 0)
        with pytest.raises(ValueError, match="implausible PNG dimensions"):
            decode_png(_png(ihdr, b"\x00" * (w * 4 + 1)))

    def test_bmp_roundtrip_with_padding(self):
        img = _img((6, 5, 3))  # 5*3=15 bytes/row -> 1 pad byte
        assert (decode_bmp(encode_bmp(img)) == img).all()

    def test_wav_roundtrip(self):
        s = np.random.RandomState(5).uniform(-0.5, 0.5, size=(1600, 2))
        dec, rate, sw = decode_wav(encode_wav(s, 8000))
        assert rate == 8000 and sw == 2 and dec.shape == (1600, 2)
        assert np.abs(dec - s).max() < 1e-3

    def test_sniff(self):
        img = _img((2, 2, 3))
        assert sniff_media(encode_png(img)) == "png"
        assert sniff_media(encode_bmp(img)) == "bmp"
        assert sniff_media(encode_wav(np.zeros((4, 1)))) == "wav"
        assert sniff_media(b"\xff\xd8\xff any jpeg") == "jpeg"

    def test_decode_errors(self):
        with pytest.raises(ValueError):
            decode_png(b"\x89PNG\r\n\x1a\ngarbage")
        with pytest.raises(ValueError):
            decode_bmp(b"BMshort")


@pytest.mark.usefixtures("ray_session")
class TestRealDecodeStages:
    def test_image_stage_real_png(self):
        import ray
        from pdf_extract_ray.ops.multimodal import image_features
        img = _img((10, 8, 3))
        flat = np.full((4, 4, 3), 128, dtype=np.uint8)
        t = pa.table({"item_id": pa.array([1, 2, 3], pa.int64()),
                      "payload": pa.array(
                          [encode_png(img), encode_bmp(flat), b"not-media"],
                          pa.binary())})
        out = image_features(ray.data.from_arrow(t)).to_pandas() \
            .set_index("item_id")
        assert (out.loc[1, "width"], out.loc[1, "height"]) == (8, 10)
        assert out.loc[1, "n_channels"] == 3
        assert (out.loc[2, "width"], out.loc[2, "height"]) == (4, 4)
        # flat gray 128 -> mean ~0.502, std 0
        f2 = out.loc[2, "features"]
        assert abs(f2[0] - 128 / 255) < 1e-3 and f2[1] == 0.0
        assert out.loc[3, "status"] == "ok"  # fake fallback stays total

    def test_audio_stage_real_wav(self):
        import ray
        from pdf_extract_ray.ops.multimodal import audio_features
        s = np.zeros((8000, 1))
        s[:, 0] = np.sin(np.linspace(0, 100, 8000))
        t = pa.table({"item_id": pa.array([1, 2], pa.int64()),
                      "payload": pa.array([encode_wav(s, 8000), b"xx-opus"],
                                          pa.binary())})
        out = audio_features(ray.data.from_arrow(t)).to_pandas() \
            .set_index("item_id")
        assert out.loc[1, "sample_rate"] == 8000
        assert abs(out.loc[1, "duration_s"] - 1.0) < 1e-6
        assert len(out.loc[1, "mfcc"]) == 13
        assert 0.5 < out.loc[1, "mfcc"][0] < 0.9  # real RMS of a sine
        assert out.loc[2, "sample_rate"] == 16000  # fake fallback


class TestCodecFuzz:
    """Decoders must raise ValueError (or decode) on arbitrary bytes —
    never hang, loop, or die with an unexpected exception type."""

    def test_png_fuzz(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=150, deadline=None)
        @given(st.binary(min_size=0, max_size=512))
        def run(tail):
            from pdf_extract_ray.ops.codecs import PNG_MAGIC, decode_png
            try:
                decode_png(PNG_MAGIC + tail)
            except (ValueError, Exception) as e:
                # total: any failure must be a clean exception
                assert isinstance(e, Exception)
        run()

    def test_bmp_fuzz(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=150, deadline=None)
        @given(st.binary(min_size=0, max_size=512))
        def run(tail):
            from pdf_extract_ray.ops.codecs import decode_bmp
            try:
                decode_bmp(b"BM" + tail)
            except Exception:
                pass
        run()

    def test_wav_fuzz(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=150, deadline=None)
        @given(st.binary(min_size=0, max_size=512))
        def run(tail):
            from pdf_extract_ray.ops.codecs import decode_wav
            try:
                decode_wav(b"RIFF" + tail)
            except Exception:
                pass
        run()

    def test_image_stage_total_on_garbage(self, ray_session):
        """The Ray stage must map garbage 'PNG' payloads to error rows,
        never fail the task."""
        import ray
        from pdf_extract_ray.ops.codecs import PNG_MAGIC
        from pdf_extract_ray.ops.multimodal import image_features
        t = pa.table({"item_id": pa.array([1, 2], pa.int64()),
                      "payload": pa.array(
                          [PNG_MAGIC + b"\x00" * 40, b""], pa.binary())})
        out = image_features(ray.data.from_arrow(t)).to_pandas()
        assert len(out) == 2
        assert all(s.startswith("error") for s in out.status)


class TestResampleAudio:
    def test_linear_resample_preserves_tone_and_halves_length(self):
        import ray
        from pdf_extract_ray.ops.codecs import encode_wav
        from pdf_extract_ray.ops.multimodal import resample_audio
        n, rate, freq = 1600, 8000, 200.0
        t = np.arange(n, dtype=np.float64)
        wave = 0.4 * np.sin(2 * np.pi * freq * t / rate)
        tbl = pa.table({
            "item_id": pa.array([1, 2], pa.int64()),
            "payload": pa.array(
                [encode_wav(wave.reshape(-1, 1), rate), b"not a wav"],
                pa.binary())})
        out = resample_audio(ray.data.from_arrow(tbl),
                             target_rate=4000).to_pandas() \
            .set_index("item_id")
        row = out.loc[1]
        assert row.status == "ok"
        assert int(row.sample_rate) == 4000
        # n_out = (1600-1)//2 + 1 = 800
        assert int(row.n_samples) == 800
        pcm = np.frombuffer(row.pcm16, dtype="<i2").astype(np.float64) \
            / 32767.0
        # exact linear-interp reference
        pos = np.arange(800, dtype=np.float64) * 2.0
        ref = np.interp(pos, t, wave)
        assert np.max(np.abs(pcm - ref)) < 1.0 / 32000  # int16 rounding
        # dominant FFT bin stays at 200 Hz
        spec = np.abs(np.fft.rfft(pcm))
        peak_hz = np.argmax(spec[1:]) + 1
        assert abs(peak_hz * 4000 / 800 - freq) < 6.0
        # non-wav payload -> deterministic fake, still total
        assert out.loc[2].status == "fake"
        assert int(out.loc[2].n_samples) == 1000

    def test_empty_payload_is_error_row(self):
        import ray
        from pdf_extract_ray.ops.multimodal import resample_audio
        tbl = pa.table({"item_id": pa.array([7], pa.int64()),
                        "payload": pa.array([b""], pa.binary())})
        out = resample_audio(ray.data.from_arrow(tbl)).to_pandas()
        assert out.status.iloc[0].startswith("error")
        assert int(out.n_samples.iloc[0]) == 0


@pytest.mark.usefixtures("ray_session")
class TestImageDHash:
    def _img(self, seed: int, side: int = 10) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.integers(0, 256, (side, side, 3)).astype(np.uint8)

    def test_container_invariance(self):
        from pdf_extract_ray.ops.codecs import (decode_bmp, decode_png,
                                                encode_bmp, encode_png)
        from pdf_extract_ray.ops.multimodal import dhash64
        img = self._img(3)
        assert encode_png(img) != encode_bmp(img)  # bytes differ
        assert dhash64(decode_png(encode_png(img))) \
            == dhash64(decode_bmp(encode_bmp(img)))

    def test_brightness_shift_invariance(self):
        from pdf_extract_ray.ops.multimodal import dhash64
        img = self._img(4).astype(np.int64) % 200  # headroom for +40
        assert dhash64(img.astype(np.uint8)) \
            == dhash64((img + 40).astype(np.uint8))

    def test_distinct_images_distinct_hashes(self):
        from pdf_extract_ray.ops.multimodal import dhash64
        hs = {dhash64(self._img(s)) for s in range(20)}
        assert len(hs) == 20

    def test_tiny_image_upscale_path(self):
        from pdf_extract_ray.ops.multimodal import dhash64
        img = self._img(5, side=3)   # smaller than the 8x9 hash grid
        assert 0 <= dhash64(img) < 2 ** 64

    def test_groups_recover_planted_cross_container_dups(self):
        import ray
        from pdf_extract_ray.ops.codecs import encode_bmp, encode_png
        from pdf_extract_ray.ops.multimodal import image_dhash_groups
        # 4 distinct pixel contents, each encoded twice (PNG + BMP),
        # plus 6 unique images and one corrupt payload
        rows = []
        iid = 0
        for k in range(4):
            img = self._img(100 + k)
            for enc in (encode_png, encode_bmp):
                rows.append((iid, enc(img)))
                iid += 1
        for k in range(6):
            rows.append((iid, encode_png(self._img(200 + k))))
            iid += 1
        rows.append((iid, b"\x89PNG\r\n\x1a\ntruncated"))
        t = pa.table({
            "item_id": pa.array([r[0] for r in rows], pa.int64()),
            "payload": pa.array([r[1] for r in rows], pa.binary())})
        out = image_dhash_groups(ray.data.from_arrow(t)).to_pandas()
        assert len(out) == 4
        assert sorted(out.item_id.tolist()) == [0, 2, 4, 6]
        assert out.n_items.tolist() == [2, 2, 2, 2]


class TestJpegCodec:
    """Baseline JPEG (VERDICT r3 item 3): pure-numpy huffman+IDCT
    decoder + fixture encoder.  Hashes freeze the exact pixel output
    (both codec halves are deterministic)."""

    def test_exact_pixels_frozen(self):
        import hashlib
        from pdf_extract_ray.ops.codecs import decode_jpeg, encode_jpeg
        rng = np.random.RandomState(42)
        img = rng.randint(0, 256, (8, 8, 3)).astype(np.uint8)
        data = encode_jpeg(img)
        assert hashlib.sha256(data).hexdigest() == \
            "3d5d5f6bd3459aeb8b87b47fce803ad5ef38f0bd17efd26a3f43ef53f118b8b9"
        dec = decode_jpeg(data)
        assert dec.shape == (8, 8, 3)
        assert hashlib.sha256(dec.tobytes()).hexdigest() == \
            "dd45e3711adf861a4d08b35d2bffcbdb96f7f14a61d1fb9b50b32c48aa48bb42"
        assert dec[0, 0].tolist() == [101, 181, 180]

    def test_constant_color_near_exact(self):
        from pdf_extract_ray.ops.codecs import decode_jpeg, encode_jpeg
        img = np.full((16, 24, 3), [120, 64, 200], np.uint8)
        dec = decode_jpeg(encode_jpeg(img))
        assert np.abs(dec.astype(int) - img.astype(int)).max() <= 2

    @pytest.mark.parametrize("kw", [
        {}, {"subsample": True}, {"restart_interval": 3},
        {"subsample": True, "restart_interval": 2}])
    def test_gradient_roundtrip_variants(self, kw):
        from pdf_extract_ray.ops.codecs import decode_jpeg, encode_jpeg
        y, x = np.mgrid[0:32, 0:40]
        img = np.stack([(x * 6) % 256, (y * 7) % 256,
                        ((x + y) * 3) % 256], axis=2).astype(np.uint8)
        dec = decode_jpeg(encode_jpeg(img, **kw))
        assert dec.shape == img.shape
        err = np.abs(dec.astype(int) - img.astype(int)).mean()
        assert err < (6 if kw.get("subsample") else 4), (kw, err)

    def test_grayscale_and_odd_dims(self):
        import hashlib
        from pdf_extract_ray.ops.codecs import decode_jpeg, encode_jpeg
        g = (np.arange(256).reshape(16, 16) % 256).astype(np.uint8)[..., None]
        dg = decode_jpeg(encode_jpeg(g))
        assert dg.shape == (16, 16, 1)
        assert hashlib.sha256(dg.tobytes()).hexdigest() == \
            "54cc9017048b9255f493a69ee3de2d1e116527fb1e56479968bb20acc8e72428"
        # non-multiple-of-8 (and of 16 when subsampled) dimensions
        odd = np.full((13, 21, 3), [10, 200, 90], np.uint8)
        for sub in (False, True):
            d = decode_jpeg(encode_jpeg(odd, subsample=sub))
            assert d.shape == (13, 21, 3)
            assert np.abs(d.astype(int) - odd.astype(int)).max() <= 3

    def test_bad_scan_script_rejected(self):
        # flipping a baseline SOF to SOF2 makes the single scan's
        # Ss=0/Se=63 header an illegal progressive DC scan
        from pdf_extract_ray.ops.codecs import decode_jpeg, encode_jpeg
        img = np.full((8, 8, 3), 55, np.uint8)
        data = bytearray(encode_jpeg(img))
        sof = bytes(data).find(b"\xff\xc0")
        data[sof + 1] = 0xC2  # claim progressive
        with pytest.raises(ValueError):
            decode_jpeg(bytes(data))

    def test_fuzz_total(self):
        # ADVICE r4: structural damage must surface as ValueError ONLY
        # (IndexError/KeyError would bypass callers' fake-decode
        # fallback and turn rows into status='error')
        from pdf_extract_ray.ops.codecs import decode_jpeg, encode_jpeg
        img = np.full((16, 16, 3), 90, np.uint8)
        base = encode_jpeg(img, restart_interval=2)
        rng = np.random.RandomState(5)
        for _ in range(150):
            buf = bytearray(base)
            for _ in range(rng.randint(1, 6)):
                buf[rng.randint(len(buf))] = rng.randint(256)
            trunc = bytes(buf)[:rng.randint(2, len(buf))] \
                if rng.rand() < 0.3 else bytes(buf)
            try:
                out = decode_jpeg(trunc)
                assert out.dtype == np.uint8
            except ValueError:
                pass


class TestProgressiveJpeg:
    """Progressive JPEG (VERDICT r4 item 3): SOF2 decode — spectral
    selection + successive approximation on the shared huffman/IDCT
    machinery — with a fixture-side progressive encoder that reuses
    encode_jpeg's quantized coefficients, so progressive and baseline
    decodes of the same image are PIXEL-IDENTICAL by construction."""

    @staticmethod
    def _img(h, w, c, seed):
        rng = np.random.RandomState(seed)
        yy, xx = np.mgrid[0:h, 0:w]
        img = ((yy * 3 + xx * 5) % 256).astype(np.uint8)[:, :, None] \
            .repeat(c, axis=2)
        return np.clip(img.astype(int) + rng.randint(-40, 40, (h, w, c)),
                       0, 255).astype(np.uint8)

    @pytest.mark.parametrize("shape,sub", [
        ((16, 16, 3), False), ((17, 23, 3), False), ((33, 31, 3), True),
        ((8, 8, 1), False), ((40, 24, 3), True), ((21, 13, 1), False)])
    def test_pixel_identical_to_baseline(self, shape, sub):
        from pdf_extract_ray.ops.codecs import (decode_jpeg, encode_jpeg,
                                                encode_jpeg_progressive)
        img = self._img(*shape, seed=shape[0] * 100 + shape[1])
        base = decode_jpeg(encode_jpeg(img, subsample=sub))
        for succ in (False, True):
            prog_bytes = encode_jpeg_progressive(
                img, subsample=sub, successive=succ)
            assert b"\xff\xc2" in prog_bytes  # really SOF2
            prog = decode_jpeg(prog_bytes)
            assert np.array_equal(base, prog), (shape, sub, succ)

    def test_exact_pixels_frozen(self):
        import hashlib
        from pdf_extract_ray.ops.codecs import (decode_jpeg,
                                                encode_jpeg_progressive)
        rng = np.random.RandomState(42)
        img = rng.randint(0, 256, (8, 8, 3)).astype(np.uint8)
        dec = decode_jpeg(encode_jpeg_progressive(img, successive=True))
        # identical to TestJpegCodec.test_exact_pixels_frozen's baseline
        # decode hash: same coefficients -> same pixels
        assert hashlib.sha256(dec.tobytes()).hexdigest() == \
            "dd45e3711adf861a4d08b35d2bffcbdb96f7f14a61d1fb9b50b32c48aa48bb42"

    def test_eob_runs_exercised(self):
        # a mostly-flat image makes long EOB runs (>1 block) in the AC
        # scans; decode must still be pixel-identical
        from pdf_extract_ray.ops.codecs import (decode_jpeg, encode_jpeg,
                                                encode_jpeg_progressive)
        img = np.full((64, 64, 3), [120, 64, 200], np.uint8)
        img[0, 0] = [255, 0, 0]  # one busy block
        base = decode_jpeg(encode_jpeg(img))
        for succ in (False, True):
            prog = decode_jpeg(
                encode_jpeg_progressive(img, successive=succ))
            assert np.array_equal(base, prog)

    def test_fuzz_total_progressive(self):
        from pdf_extract_ray.ops.codecs import (decode_jpeg,
                                                encode_jpeg_progressive)
        img = self._img(24, 16, 3, seed=9)
        base = encode_jpeg_progressive(img, successive=True)
        rng = np.random.RandomState(11)
        for _ in range(200):
            buf = bytearray(base)
            for _ in range(rng.randint(1, 6)):
                buf[rng.randint(len(buf))] = rng.randint(256)
            trunc = bytes(buf)[:rng.randint(2, len(buf))] \
                if rng.rand() < 0.3 else bytes(buf)
            try:
                out = decode_jpeg(trunc)
                assert out.dtype == np.uint8
            except ValueError:
                pass

    def test_image_stage_decodes_progressive_real(self):
        # decode_image must take the REAL path (deterministic pixel
        # stats), not the sha-derived fake, for progressive payloads
        from pdf_extract_ray.ops.codecs import (decode_jpeg,
                                                encode_jpeg_progressive)
        from pdf_extract_ray.ops.multimodal import decode_image
        img = self._img(12, 20, 3, seed=3)
        payload = encode_jpeg_progressive(img)
        w, h, c, feats = decode_image(payload, 32)
        assert (w, h, c) == (20, 12, 3)
        px = decode_jpeg(payload).astype(np.float32) / 255.0
        assert feats[0] == pytest.approx(float(px[:, :, 0].mean()))


@pytest.mark.usefixtures("ray_session")
class TestJpegStages:
    def test_image_features_real_jpeg(self):
        import ray
        from pdf_extract_ray.ops.codecs import encode_jpeg
        from pdf_extract_ray.ops.multimodal import image_features
        img = np.full((10, 8, 3), [200, 100, 50], np.uint8)
        t = pa.table({"item_id": pa.array([1], pa.int64()),
                      "payload": pa.array([encode_jpeg(img)],
                                          pa.binary())})
        out = image_features(ray.data.from_arrow(t)).to_pandas()
        assert out.loc[0, "status"] == "ok"
        assert (out.loc[0, "width"], out.loc[0, "height"]) == (8, 10)
        # real pixels: channel-0 mean ~200/255
        assert abs(out.loc[0, "features"][0] - 200 / 255) < 0.02

    def test_resize_stage_real_jpeg(self):
        import ray
        from pdf_extract_ray.ops.codecs import encode_jpeg
        from pdf_extract_ray.ops.multimodal import ResizeImageBatch
        img = np.full((32, 32, 3), [10, 250, 120], np.uint8)
        t = pa.table({"item_id": pa.array([7], pa.int64()),
                      "payload": pa.array([encode_jpeg(img)],
                                          pa.binary())})
        out = ray.data.from_arrow(t).map_batches(
            ResizeImageBatch, fn_constructor_kwargs={
                "width": 8, "height": 8},
            batch_format="pyarrow", concurrency=1).to_pandas()
        assert out.loc[0, "status"] == "ok"
        px = np.frombuffer(out.loc[0, "pixels"], np.uint8) \
            .reshape(8, 8, 3)
        assert np.abs(px.astype(int)
                      - np.array([10, 250, 120])).max() <= 4


@pytest.mark.usefixtures("ray_session")
class TestMjpegAvi:
    def test_roundtrip_and_real_frame_sampling(self):
        import hashlib

        import ray
        from pdf_extract_ray.ops.codecs import (decode_jpeg,
                                                encode_avi_mjpeg,
                                                parse_avi_mjpeg)
        from pdf_extract_ray.ops.multimodal import sample_frames
        frames = [np.full((16, 24, 3), [10 * i, 100, 200 - 10 * i],
                          np.uint8) for i in range(5)]
        avi = encode_avi_mjpeg(frames)
        assert len(parse_avi_mjpeg(avi)) == 5
        t = pa.table({"item_id": pa.array([1, 2], pa.int64()),
                      "payload": pa.array([avi, b"not-a-video" * 200],
                                          pa.binary())})
        out = sample_frames(ray.data.from_arrow(t),
                            every_n=2).to_pandas()
        real = out[out.item_id == 1]
        assert real.frame_idx.tolist() == [0, 2, 4]
        assert (real.status == "ok").all()
        # sigs hash DECODED pixels: recompute independently
        want = hashlib.blake2b(
            decode_jpeg(parse_avi_mjpeg(avi)[2]).tobytes(),
            digest_size=8).digest()
        assert real[real.frame_idx == 2].frame_sig.iloc[0] == want
        fake = out[out.item_id == 2]
        assert (fake.status == "fake").all() and len(fake) >= 1

    def test_damaged_avi_total(self):
        import ray
        from pdf_extract_ray.ops.codecs import encode_avi_mjpeg
        from pdf_extract_ray.ops.multimodal import sample_frames
        frames = [np.full((8, 8, 3), 50, np.uint8)]
        avi = bytearray(encode_avi_mjpeg(frames))
        avi[40:200] = b"\x00" * 160  # wreck the header region
        t = pa.table({"item_id": pa.array([1], pa.int64()),
                      "payload": pa.array([bytes(avi)], pa.binary())})
        out = sample_frames(ray.data.from_arrow(t),
                            every_n=1).to_pandas()
        assert len(out) >= 1  # fell back, stayed total

    def test_parse_rejects_non_avi(self):
        from pdf_extract_ray.ops.codecs import parse_avi_mjpeg
        with pytest.raises(ValueError):
            parse_avi_mjpeg(b"RIFFxxxxWAVE")
        with pytest.raises(ValueError):
            parse_avi_mjpeg(b"junk")

class TestMp4Container:
    """MP4 (VERDICT r4 item 4): REAL ISO-BMFF container walk — stbl
    sample tables resolved to actual frame byte ranges + stss sync
    flags; H.264 pixel decode stays out of scope (frame sigs hash the
    coded payloads, rows carry status='container')."""

    def test_tables_roundtrip(self):
        from pdf_extract_ray.ops.codecs import build_mp4, parse_mp4_samples
        frames = [bytes([i]) * (50 + 13 * i) for i in range(23)]
        mp4 = build_mp4(frames, fps=30, sync_every=7, samples_per_chunk=5)
        info = parse_mp4_samples(mp4)
        assert info["codec"] == "avc1"
        assert info["timescale"] == 600
        assert info["duration"] == 23 * 20
        assert len(info["samples"]) == 23
        for i, (off, size, _) in enumerate(info["samples"]):
            assert mp4[off:off + size] == frames[i]
        assert [i for i, s in enumerate(info["samples"]) if s[2]] \
            == [0, 7, 14, 21]

    def test_single_chunk_and_uneven_tail(self):
        from pdf_extract_ray.ops.codecs import build_mp4, parse_mp4_samples
        for n, spc in [(3, 10), (7, 3), (1, 1)]:
            frames = [bytes([i + 1]) * (9 + i) for i in range(n)]
            mp4 = build_mp4(frames, samples_per_chunk=spc)
            info = parse_mp4_samples(mp4)
            assert all(mp4[o:o + s] == frames[i]
                       for i, (o, s, _) in enumerate(info["samples"]))

    def test_damaged_boxes_total(self):
        # structural damage must surface as ValueError ONLY (the
        # stage's declared-fake fallback catches exactly that)
        from pdf_extract_ray.ops.codecs import build_mp4, parse_mp4_samples
        frames = [bytes([i]) * 60 for i in range(12)]
        base = build_mp4(frames)
        rng = np.random.RandomState(3)
        decoded = 0
        for _ in range(400):
            buf = bytearray(base)
            for _ in range(rng.randint(1, 8)):
                buf[rng.randint(len(buf))] = rng.randint(256)
            t = bytes(buf)[:rng.randint(2, len(buf))] \
                if rng.rand() < 0.4 else bytes(buf)
            try:
                parse_mp4_samples(t)
                decoded += 1
            except ValueError:
                pass
        assert decoded > 0  # some mutations only touch payload bytes

    def test_parse_rejects_non_mp4(self):
        from pdf_extract_ray.ops.codecs import parse_mp4_samples
        with pytest.raises(ValueError):
            parse_mp4_samples(b"junkjunkjunk")
        # ftyp but no moov
        import struct
        ftyp = struct.pack(">I", 16) + b"ftypisom" + b"\x00\x00\x02\x00"
        with pytest.raises(ValueError):
            parse_mp4_samples(ftyp)


@pytest.mark.usefixtures("ray_session")
class TestMp4FrameSampling:
    def test_container_status_and_real_ranges(self):
        import hashlib
        import ray
        from pdf_extract_ray.ops.codecs import build_mp4, parse_mp4_samples
        from pdf_extract_ray.ops.multimodal import sample_frames
        frames = [bytes([i + 1]) * (30 + 5 * i) for i in range(10)]
        mp4 = build_mp4(frames, sync_every=4)  # syncs at 0, 4, 8
        t = pa.table({"item_id": pa.array([1, 2], pa.int64()),
                      "payload": pa.array([mp4, b"no-video" * 300],
                                          pa.binary())})
        out = sample_frames(ray.data.from_arrow(t), every_n=3).to_pandas()
        real = out[out.item_id == 1]
        # targets 0,3,6,9 -> preceding syncs 0,0,4,8 -> dedup [0,4,8]
        assert real.frame_idx.tolist() == [0, 4, 8]
        assert (real.status == "container").all()
        samples = parse_mp4_samples(mp4)["samples"]
        off, size, _ = samples[4]
        want = hashlib.blake2b(mp4[off:off + size], digest_size=8).digest()
        assert real[real.frame_idx == 4].frame_sig.iloc[0] == want
        fake = out[out.item_id == 2]
        assert (fake.status == "fake").all() and len(fake) >= 1

    def test_damaged_mp4_falls_back(self):
        import ray
        from pdf_extract_ray.ops.codecs import build_mp4
        from pdf_extract_ray.ops.multimodal import sample_frames
        mp4 = bytearray(build_mp4([b"x" * 50] * 5))
        moov = bytes(mp4).find(b"moov")
        mp4[moov:moov + 4] = b"mooX"  # no video track resolvable
        t = pa.table({"item_id": pa.array([1], pa.int64()),
                      "payload": pa.array([bytes(mp4)], pa.binary())})
        out = sample_frames(ray.data.from_arrow(t), every_n=1).to_pandas()
        assert len(out) >= 1
        assert (out.status == "fake").all()


class TestInterlacedPng:
    """Adam7 interlaced PNG decode (round 5): each pass defilters
    independently and scatters into the raster — pixel-identical to
    the sequential layout by construction."""

    @pytest.mark.parametrize("shape", [
        (16, 16, 3), (13, 21, 3), (8, 8, 1), (1, 1, 3), (7, 3, 4),
        (9, 17, 2), (2, 2, 3)])
    def test_roundtrip_identical_to_sequential(self, shape):
        from pdf_extract_ray.ops.codecs import decode_png, encode_png
        rng = np.random.RandomState(sum(shape))
        img = rng.randint(0, 256, shape).astype(np.uint8)
        data = encode_png(img, interlace=True)
        # really interlaced: IHDR interlace byte set
        ihdr_off = data.find(b"IHDR") + 4
        assert data[ihdr_off + 12] == 1
        assert np.array_equal(decode_png(data), img)

    def test_fuzz_total_interlaced(self):
        from pdf_extract_ray.ops.codecs import decode_png, encode_png
        img = np.arange(24 * 16 * 3, dtype=np.int64).reshape(24, 16, 3)
        base = encode_png((img % 256).astype(np.uint8), interlace=True)
        rng = np.random.RandomState(13)
        for _ in range(200):
            buf = bytearray(base)
            for _ in range(rng.randint(1, 6)):
                buf[rng.randint(len(buf))] = rng.randint(256)
            t = bytes(buf)[:rng.randint(2, len(buf))] \
                if rng.rand() < 0.3 else bytes(buf)
            try:
                out = decode_png(t)
                assert out.dtype == np.uint8
            except ValueError:
                pass


class TestPalettePng:
    """Indexed (color type 3) PNG with PLTE + optional tRNS (round 5):
    defilter as index bytes, map through the palette; works sequential
    AND Adam7."""

    def test_roundtrip_and_trns(self):
        from pdf_extract_ray.ops.codecs import (decode_png,
                                                encode_png_palette)
        rng = np.random.RandomState(2)
        pal = rng.randint(0, 256, (17, 3)).astype(np.uint8)
        idx = rng.randint(0, 17, (10, 14)).astype(np.uint8)
        for inter in (False, True):
            out = decode_png(encode_png_palette(idx, pal,
                                                interlace=inter))
            assert np.array_equal(out, pal[idx])
        out = decode_png(encode_png_palette(idx, pal,
                                            trns=bytes([200] * 5)))
        assert out.shape == (10, 14, 4)
        assert np.array_equal(
            out[:, :, 3],
            np.where(idx < 5, 200, 255).astype(np.uint8))

    def test_out_of_range_index_rejected(self):
        from pdf_extract_ray.ops.codecs import (decode_png,
                                                encode_png_palette)
        pal = np.zeros((4, 3), np.uint8)
        idx = np.full((4, 4), 9, np.uint8)  # index 9 > palette size
        with pytest.raises(ValueError):
            decode_png(encode_png_palette(idx, pal))

    def test_missing_plte_rejected(self):
        from pdf_extract_ray.ops.codecs import (decode_png,
                                                encode_png_palette)
        pal = np.zeros((4, 3), np.uint8)
        idx = np.zeros((4, 4), np.uint8)
        data = bytearray(encode_png_palette(idx, pal))
        p = bytes(data).find(b"PLTE")
        data[p:p + 4] = b"pLTX"  # hide the palette chunk
        with pytest.raises(ValueError):
            decode_png(bytes(data))


class TestPng16Bit:
    """16-bit-per-sample PNG decode (round 5): defilter at 2-byte
    pixel stride, high-byte downconversion to uint8."""

    @staticmethod
    def _build(img16, interlace=0):
        import struct, zlib
        from pdf_extract_ray.ops.codecs import PNG_MAGIC, _ADAM7

        def chunk(ctype, payload):
            crc = zlib.crc32(ctype + payload) & 0xFFFFFFFF
            return (struct.pack(">I", len(payload)) + ctype + payload
                    + struct.pack(">I", crc))

        h, w, c = img16.shape
        ct = {1: 0, 2: 4, 3: 2, 4: 6}[c]
        if interlace:
            parts = []
            for x0, y0, dx, dy in _ADAM7:
                sub = img16[y0::dy, x0::dx]
                for y in range(sub.shape[0]):
                    if sub.shape[1]:
                        parts.append(b"\x00" + sub[y].tobytes())
            raw = b"".join(parts)
        else:
            raw = b"".join(b"\x00" + img16[y].tobytes()
                           for y in range(h))
        return (PNG_MAGIC
                + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 16, ct,
                                             0, 0, interlace))
                + chunk(b"IDAT", zlib.compress(raw))
                + chunk(b"IEND", b""))

    @pytest.mark.parametrize("shape,inter", [
        ((9, 7, 3), 0), ((8, 8, 1), 0), ((13, 5, 4), 0),
        ((9, 7, 3), 1), ((6, 11, 2), 1)])
    def test_high_byte_downconversion(self, shape, inter):
        from pdf_extract_ray.ops.codecs import decode_png
        rng = np.random.RandomState(sum(shape))
        img16 = rng.randint(0, 65536, shape).astype(">u2")
        out = decode_png(self._build(img16, interlace=inter))
        want = (img16.astype(np.uint16) >> 8).astype(np.uint8)
        assert np.array_equal(out, want)

    def test_16bit_palette_rejected(self):
        from pdf_extract_ray.ops.codecs import decode_png
        import struct, zlib
        from pdf_extract_ray.ops.codecs import PNG_MAGIC

        def chunk(ctype, payload):
            crc = zlib.crc32(ctype + payload) & 0xFFFFFFFF
            return (struct.pack(">I", len(payload)) + ctype + payload
                    + struct.pack(">I", crc))
        data = PNG_MAGIC + chunk(
            b"IHDR", struct.pack(">IIBBBBB", 4, 4, 16, 3, 0, 0, 0))
        with pytest.raises(ValueError):
            decode_png(data)
