"""Golden bytes: the sha256 of every file the CLI writes for the catalog.

For each entry of tests/cases.py:CATALOG this pins the bytes of
``sfckit catalog -o``; for each superfusion entry that carries a table,
also those of ``sfckit underlying -o`` on the catalog file and of ``sfckit
lift-cocycle -o`` on its source group and supercocycle.  A change to the scalar layer,
the lifts or serialization that alters any written byte fails here.

To print the digests of the current code: ``python -m tests.test_golden``
from the repository root with ``src`` on ``PYTHONPATH``.
"""

import contextlib
import hashlib
import io
import pathlib
import tempfile

import pytest

from sfckit.catalog import build_entry
from sfckit.cli import main
from sfckit.serialize import dumps_file, group_file
from tests.cases import CATALOG

# (exit code, sha256 of the written file)
GOLDEN = {
    "catalog trivial": (0, "43fd5859a6234a63bffcdff6f2a3e8127bacf397b82457b21129a7d6ba04d7a1"),
    "catalog trivial-super": (0, "a3b5cb75ada9f444f652d76aa1372237e638dfdce1a3f0b8e87211dff2a390f9"),
    "catalog ising": (0, "098351160a6babd88770bb6cc7299f9f3c2cc735946ef57b295c94f06decc020"),
    "catalog ck 2": (0, "4c013c1b464e1bbbf98580ed221cae4b56f300056118c9c0e2dce0d77bcaaaa4"),
    "catalog ck 6": (0, "6dfb52e1ecec3cf92c8bde9892e68cfcc3280165423aa52ac234cd4225e02723"),
    "catalog vec-zn 2": (0, "b21c6c5d49e7ffde75b08117838a8a7cd49e882e101a15513dc5b4805b33d037"),
    "catalog vec-zn 3 2": (0, "f0630487f841551c7cdee5bef88fd99df36175d365773c796fc8d4d6d6bc2a16"),
    "catalog vec-zn 4": (0, "637aab206ee6cf3dfddbb44122bead98db40d1b77af73e63272d840d3c3ebc24"),
    "catalog vec-zn 6": (0, "959f71a38a7d610f9a74e9996c98543ae814bf9fac5bd2be7cfbeee9dfc2f5d5"),
    "catalog super-z2 1": (0, "a9c66ff5fa086f229406f41ca2ca999a02c2b75892cf1fbb5a4c2389313f25bd"),
    "underlying super-z2 1": (0, "869879c9e74b93b01bae7209232b5f1933c22efa993849e57b1ce2e39dbe62fc"),
    "lift-cocycle super-z2 1": (0, "8d74d743ed23f92d741fdeb651d0a765f9e0cba51a7fd908f3f3a553cb53fa99"),
    "catalog super-z2 3": (0, "626ef046bb071f2159f3bf6cd8301f3b923f2670c3a2d4f025d5699f58eeb76e"),
    "underlying super-z2 3": (0, "c7e2036d7d4a9524786cbff391e7de5df20e280375b4bd61a036a9ab8543596f"),
    "lift-cocycle super-z2 3": (0, "99baed3d0fe56071ee45c52b87e1454df8a2816bc44f4d6e81bac47f3601ffe5"),
    "catalog super-zn-even 2": (0, "0cfa92b1a35a2ddc79d1845838c5f774e034e338541b6f3757edc8a1ac56f551"),
    "underlying super-zn-even 2": (0, "f40fdd514df5709d213cf750549029160698f753784b34b1faebe7eb342894fc"),
    "lift-cocycle super-zn-even 2": (0, "abf033e3ccf19df9f266ca7cfb6a0fc45fd19cef4b6d65c9a47afd8bd3a66444"),
    "catalog super-zn-even 3 2": (0, "e788e06c94359783b5e2915131158a58e2282dd3ffaf738994291a185e82af37"),
    "underlying super-zn-even 3 2": (0, "58b9df19f56bd5aa255f77153e628c3eb4971f9d58cbaca08c638ac36e0ff7ab"),
    "lift-cocycle super-zn-even 3 2": (0, "efd7ad9ff56ea4eb32072dc35e71d5fa7c3267d61cbfab1a9494fb223aeb27ed"),
    "catalog super-zn-even 4": (0, "3b621f7aeb85a8202fe0c3e703957567bc1e651496d2fd1e3ca2af6ae98788cd"),
    "underlying super-zn-even 4": (0, "a5aa058b7f2a442cf197f4a92791f92567e86b938900f4a7a1e5897ca82f252d"),
    "lift-cocycle super-zn-even 4": (0, "fd7717b37da82af141ad88ba29d48a29f5b361f0cda1becd1af2d0ef3c27c137"),
}


def golden_cases():
    """(case id, entry name, params, command) for every pinned command."""
    cases = []
    for name, params in CATALOG:
        label = " ".join([name, *map(str, params)])
        cases.append((f"catalog {label}", name, params, "catalog"))
        entry = build_entry(name, *params)
        if entry.sixj is not None and entry.kind == "superfusion":
            cases.append((f"underlying {label}", name, params, "underlying"))
        if entry.sixj is not None and "supercocycle" in entry.source:
            cases.append((f"lift-cocycle {label}", name, params, "lift-cocycle"))
    return cases


def run_case(workdir: pathlib.Path, name, params, command):
    """(exit code, sha256 of the written file) of one pinned command."""
    args = [str(p) for p in params]
    out = workdir / f"{command}-{name}-{'-'.join(args)}.json"
    if command == "catalog":
        argv = ["catalog", name, *args]
    elif command == "underlying":
        src = workdir / f"src-{name}-{'-'.join(args)}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["catalog", name, *args, "-o", str(src)]) == 0
        argv = ["underlying", str(src), "--jobs", "1"]
    else:
        entry = build_entry(name, *params)
        src = workdir / f"group-{name}-{'-'.join(args)}.json"
        src.write_text(dumps_file(group_file(entry.source["group"], supercocycle=entry.source["supercocycle"])))
        argv = ["lift-cocycle", str(src)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "-o", str(out)])
    return code, hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("case, name, params, command", golden_cases())
def test_written_bytes_match_golden(tmp_path, case, name, params, command):
    assert run_case(tmp_path, name, params, command) == GOLDEN[case]


def test_every_golden_case_is_run():
    assert sorted(GOLDEN) == sorted(case for case, *_ in golden_cases())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case, name, params, command in golden_cases():
            code, digest = run_case(pathlib.Path(tmp), name, params, command)
            print(f'    "{case}": ({code}, "{digest}"),')
