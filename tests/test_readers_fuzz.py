"""Every reader turns a corrupted file into FormatError and nothing else.

Each example starts from a valid file of one format and applies up to four
edits. An edit replaces a short byte range, or overwrites as many bytes as it
writes so that a binary layout stays intact, with a token that is likely to
reach a deeper check (a non-finite or negative number, a word, bytes that are
not UTF-8, a binary32 NaN) or with arbitrary bytes.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kpfit import (
    CameraIntrinsics,
    FormatError,
    Heatmap,
    KeypointObservations,
    load_basis,
    read_heatmaps,
    read_intrinsics,
    read_keypoints,
    read_model,
    save_basis,
    write_heatmaps,
    write_intrinsics,
    write_keypoints,
    write_model,
)
from conftest import make_basis

TOKENS = [
    b"nan",
    b"inf",
    b"-inf",
    b"-1",
    b"0",
    b"1e999",
    b"x",
    b" ",
    b"\n",
    b"",
    b"\xff\xfe",
    b"\xc3",
    struct.pack("<f", float("nan")),
    struct.pack("<f", -1.0),
    struct.pack("<H", 0xFFFF),
]

EDIT = st.tuples(
    st.floats(0.0, 1.0),  # where, as a fraction of the file length
    st.one_of(st.none(), st.integers(0, 6)),  # bytes replaced; None: len(token)
    st.one_of(st.sampled_from(TOKENS), st.binary(max_size=6)),
)


def write_valid(kind, path):
    if kind == "basis":
        save_basis(make_basis(seed=3, p=4, k=1, eigenvalues=(0.5,)), path)
    elif kind == "model":
        write_model(np.arange(9.0).reshape(3, 3) / 7.0, path)
    elif kind == "keypoints":
        obs = KeypointObservations(
            np.array([[1.5, -2.0, 3.0], [0.0, 4.0, 5.0]]),
            np.array([1.0, 0.0, 0.5]),
            ("a", "b", "c"),
        )
        write_keypoints(obs, path)
    elif kind == "intrinsics":
        write_intrinsics(CameraIntrinsics(800.0, 790.0, 320.0, 240.0, 0.5), path)
    else:
        values = np.arange(6, dtype=np.float32).reshape(2, 3)
        write_heatmaps([Heatmap(values, "a"), Heatmap(values + 1.0, "b")], path)


READERS = {
    "basis": load_basis,
    "model": read_model,
    "keypoints": read_keypoints,
    "intrinsics": read_intrinsics,
    "heatmaps": read_heatmaps,
}


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(edits=st.lists(EDIT, min_size=1, max_size=4))
def test_mutated_file_raises_only_format_error(tmp_path, kind, edits):
    path = tmp_path / kind
    write_valid(kind, path)
    data = bytearray(path.read_bytes())
    for where, length, token in edits:
        start = int(where * len(data))
        data[start : start + (len(token) if length is None else length)] = token
    path.write_bytes(bytes(data))
    try:
        READERS[kind](path)
    except FormatError:
        pass
