"""Shard routing and the framed wire protocol (single-process properties).

The sharded tier's bit-parity argument rests on the routing function being
a *pure, stable* function of the query's content address: deterministic
within a process, identical across processes, immune to ``PYTHONHASHSEED``,
and balanced enough that no shard becomes a hot spot.  These tests pin each
of those properties, plus the framing layer's corruption detection — a bad
frame must surface as :class:`ShardProtocolError`, never as a garbled
unpickle.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.tables_precompute import TABLE_FAMILIES, default_grids
from repro.core.sharding import (
    FRAME_MAGIC,
    ShardConfig,
    decode_frame,
    encode_frame,
    query_fingerprint,
    shard_of,
    shard_of_query,
    split_batch,
)
from repro.exceptions import ShardingError, ShardProtocolError


def canonical_fingerprints(per_family: int = 16) -> list[str]:
    """64 distinct fingerprints: ``per_family`` interior θ per family."""
    fps = []
    for fam in sorted(TABLE_FAMILIES):
        _, v_grid = default_grids(fam)
        values = np.geomspace(v_grid[0] * 1.01, v_grid[-1] * 0.99, per_family)
        fps.extend(query_fingerprint(fam, float(v)) for v in values)
    assert len(set(fps)) == len(fps)
    return fps


class TestShardRouting:
    def test_in_range_and_deterministic(self):
        for fp in canonical_fingerprints(4):
            for n in (1, 2, 3, 8, 13):
                s = shard_of(fp, n)
                assert 0 <= s < n
                assert s == shard_of(fp, n)

    def test_rejects_bad_shard_count(self):
        for bad in (0, -1):
            with pytest.raises(ShardingError, match="n_shards"):
                shard_of("x", bad)

    @settings(max_examples=50, deadline=None)
    @given(fp=st.text(min_size=1, max_size=64), n=st.integers(1, 64))
    def test_any_fingerprint_routes(self, fp, n):
        s = shard_of(fp, n)
        assert 0 <= s < n
        assert s == shard_of(fp, n)

    def test_uniform_within_2x_across_64_fingerprints(self):
        """The acceptance balance property: max load <= 2x ideal, no empty shard."""
        fps = canonical_fingerprints(16)
        assert len(fps) == 64
        for n in (2, 4, 8):
            loads = Counter(shard_of(fp, n) for fp in fps)
            ideal = len(fps) / n
            assert len(loads) == n, f"empty shard at N={n}: {dict(loads)}"
            assert max(loads.values()) <= 2 * ideal, (
                f"hot shard at N={n}: {dict(loads)}"
            )

    def test_routing_ignores_overhead(self):
        """Shard = f(fingerprint) only: all c values of one query colocate."""
        for c in (0.05, 0.1, 1.0, 3.7):
            assert shard_of_query("uniform", 60.0, 8) == shard_of_query(
                "uniform", 60.0, 8
            )
        fp = query_fingerprint("uniform", 60.0)
        assert shard_of_query("uniform", 60.0, 8) == shard_of(fp, 8)

    def test_invalid_queries_route_deterministically(self):
        s1 = shard_of_query("nosuchfamily", 60.0, 4)
        s2 = shard_of_query("nosuchfamily", 60.0, 4)
        assert s1 == s2
        assert query_fingerprint("nosuchfamily", 60.0).startswith("invalid:")

    def test_stable_across_processes_and_hash_seeds(self):
        """fingerprint → shard must not move under PYTHONHASHSEED variation.

        Runs the routing in fresh interpreters with adversarial hash seeds
        and compares the full 64-fingerprint assignment against this
        process's.  A routing function leaning on the builtin ``hash()``
        fails this immediately.
        """
        fps = canonical_fingerprints(16)
        local = {fp: [shard_of(fp, n) for n in (2, 4, 8)] for fp in fps}
        prog = (
            "import json, sys\n"
            "from repro.core.sharding import shard_of\n"
            "fps = json.load(sys.stdin)\n"
            "print(json.dumps({fp: [shard_of(fp, n) for n in (2, 4, 8)]"
            " for fp in fps}))\n"
        )
        for hashseed in ("0", "1", "424242"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hashseed
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(_src_dir()), env.get("PYTHONPATH")) if p
            )
            out = subprocess.run(
                [sys.executable, "-c", prog],
                input=json.dumps(fps),
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
                check=True,
            )
            assert json.loads(out.stdout) == local, f"PYTHONHASHSEED={hashseed}"

    def test_split_batch_preserves_order_and_partitions(self):
        fams = ["uniform", "poly", "uniform", "geomdec", "geominc", "poly"]
        vs = [60.0, 80.0, 65.0, 1.3, 5.0, 90.0]
        lanes = split_batch(fams, vs, 4)
        flat = sorted(i for sub in lanes for i in sub)
        assert flat == list(range(len(fams)))
        for sub in lanes:
            assert sub == sorted(sub)  # input order preserved within a shard
        for shard, sub in enumerate(lanes):
            for i in sub:
                assert shard_of_query(fams[i], vs[i], 4) == shard

    def test_split_batch_length_mismatch(self):
        with pytest.raises(ShardingError, match="equally long"):
            split_batch(["uniform"], [60.0, 70.0], 2)


def _src_dir() -> str:
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class TestFraming:
    @settings(max_examples=50, deadline=None)
    @given(
        payload=st.recursive(
            st.none()
            | st.booleans()
            | st.integers()
            | st.floats(allow_nan=False)
            | st.text(max_size=20),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.text(max_size=8), inner, max_size=4),
            max_leaves=20,
        )
    )
    def test_round_trip(self, payload):
        assert decode_frame(encode_frame(payload)) == payload

    def test_header_shape(self):
        frame = encode_frame({"op": "ping"})
        assert frame[:4] == FRAME_MAGIC

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_frame({"op": "ping"}))
        frame[:4] = b"XXXX"
        with pytest.raises(ShardProtocolError, match="magic"):
            decode_frame(bytes(frame))

    def test_bad_version_rejected(self):
        frame = bytearray(encode_frame({"op": "ping"}))
        frame[4] = 99
        with pytest.raises(ShardProtocolError, match="version"):
            decode_frame(bytes(frame))

    def test_truncated_body_rejected(self):
        frame = encode_frame({"op": "ping"})
        with pytest.raises(ShardProtocolError, match="length"):
            decode_frame(frame[:-3])

    def test_corrupt_body_rejected(self):
        frame = bytearray(encode_frame({"op": "ping", "id": 7}))
        frame[-1] ^= 0xFF
        with pytest.raises(ShardProtocolError, match="checksum"):
            decode_frame(bytes(frame))

    def test_short_garbage_rejected(self):
        with pytest.raises(ShardProtocolError, match="header"):
            decode_frame(b"\x01\x02")


class TestShardConfig:
    def test_picklable_round_trip(self):
        import pickle

        cfg = ShardConfig(
            shard=3, n_shards=8, table_dir="/tmp/t",
            chaos_rates={"optimizer": 0.5}, chaos_seed=7,
        )
        assert pickle.loads(pickle.dumps(cfg)) == cfg

    def test_fields(self):
        assert [f.name for f in fields(ShardConfig)] == [
            "shard", "n_shards", "table_dir", "chaos_rates", "chaos_seed",
        ]
