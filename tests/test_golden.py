"""Byte-identity gate over the command line.

Each case runs ``rqmsim run ... --trials 200 --seed 7`` in-process and
compares the SHA-256 of its stdout and its exit code with a recorded value.
The cases cover every built-in in ``summary`` and ``events`` format, both
sweeps in ``table`` format, and every built-in written to a file with
``to_dict`` and run from that file. A change that moves any hash changed
what users see.

Print the table for the current code with ``python tests/test_golden.py``.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from rqmsim.cli import SWEEPS, main
from rqmsim.scenarios import BUILTIN_SCENARIOS

ARGS = ["--trials", "200", "--seed", "7"]

GOLDEN = {
    "events:frauchiger-renner": ("50a41296d14ef1767766fc84c308396e05ef49209302644052783a96c209b9a4", 0),
    "events:frauchiger-renner-learns": ("0a1a8a1be5a1bb14fa8a5425fdd189d7b694f9b58cd1ca0562f46d670a1d30ae", 0),
    "events:interference-erasure": ("fbe92ac06fdabcd0343bae25da717ee0333bc26553cca66212611cfdae5251f3", 0),
    "events:interference-erasure-off": ("5b5c1253ce97a07b161ca36d63a485439a6b3c1c71d4b88e2ec0e36836f495a2", 0),
    "events:stern-gerlach": ("5d1957da2b057b47bd7813deb98bafb0cfbd41a166324ffa8d0f905abce7b29a", 0),
    "events:three-outcome": ("cceba4c6445add59791645cadc86d2e8c1823b99667f1e4ba67fb56f06471d16", 0),
    "events:three-outcome-meddled": ("910837d25ab68f6cb8a03797341ba65f722f8c341023ab0a37af23886259f92c", 0),
    "events:wigner-friend": ("83624c9bd789c78dc994091bfc1e165e51b60226aac77b5e89c002a8cf4ca432", 0),
    "events:wigner-friend-learns": ("349a20a1d52d05064f0d99d1379ef9a58cabe4490fdf11f5156baf7fb32bc1d9", 0),
    "roundtrip:frauchiger-renner": ("44d7f2be9ab010bcde153ce1c0dea61d811db221b3631b13c8a6ea2481f93d8b", 0),
    "roundtrip:frauchiger-renner-learns": ("67ee226eadb48c1bc83aa02d32e05674c1f54ee9f0b28393f29fac851e557ce1", 0),
    "roundtrip:interference-erasure": ("2ab73e6170d7c466a02c33e15d9f2fbe4b96e674c902f279da84c723128f17d0", 0),
    "roundtrip:interference-erasure-off": ("6f317aa8a385f0eda9ad6b3f3357e86e08299316665d92a19ed4bbde39fa985e", 0),
    "roundtrip:stern-gerlach": ("ff80487964744ebe388c042cc48665b23349450ef0ddeac8cc4c5900c0998cd4", 0),
    "roundtrip:three-outcome": ("5066797e50f8fbf58282269781a577ddc84dd8ae632b5f60f3b2ce0785d72b90", 0),
    "roundtrip:three-outcome-meddled": ("8819f539e68c327fea34fc556248f877140d7632e4c20922ff9458b17fe737c4", 0),
    "roundtrip:wigner-friend": ("f27da561abcc9c57ecd7bf31b27967a0e8fdeb6a1e40d36edd2fcfba4209d30c", 0),
    "roundtrip:wigner-friend-learns": ("8c580b53867756d94b707fe5833f08294ae2dbf624f85e8070b5d10870a74ec7", 0),
    "summary:frauchiger-renner": ("44d7f2be9ab010bcde153ce1c0dea61d811db221b3631b13c8a6ea2481f93d8b", 0),
    "summary:frauchiger-renner-learns": ("67ee226eadb48c1bc83aa02d32e05674c1f54ee9f0b28393f29fac851e557ce1", 0),
    "summary:interference-erasure": ("2ab73e6170d7c466a02c33e15d9f2fbe4b96e674c902f279da84c723128f17d0", 0),
    "summary:interference-erasure-off": ("6f317aa8a385f0eda9ad6b3f3357e86e08299316665d92a19ed4bbde39fa985e", 0),
    "summary:stern-gerlach": ("ff80487964744ebe388c042cc48665b23349450ef0ddeac8cc4c5900c0998cd4", 0),
    "summary:three-outcome": ("5066797e50f8fbf58282269781a577ddc84dd8ae632b5f60f3b2ce0785d72b90", 0),
    "summary:three-outcome-meddled": ("8819f539e68c327fea34fc556248f877140d7632e4c20922ff9458b17fe737c4", 0),
    "summary:wigner-friend": ("f27da561abcc9c57ecd7bf31b27967a0e8fdeb6a1e40d36edd2fcfba4209d30c", 0),
    "summary:wigner-friend-learns": ("8c580b53867756d94b707fe5833f08294ae2dbf624f85e8070b5d10870a74ec7", 0),
    "table:disturbance-profile": ("6f0c92be2b8ebf304b27cf64f8184e63e4fc9a9458a0f60a0863af67da4d0e26", 0),
    "table:stable-facts-grid": ("18e5b778a390bd2ce1f3a437e0ff205ab8fdbd28610d5b504aaa76f77824ce0d", 0),
}


def _cases():
    for name in sorted(BUILTIN_SCENARIOS):
        yield f"summary:{name}"
        yield f"events:{name}"
        yield f"roundtrip:{name}"
    for name in SWEEPS:
        yield f"table:{name}"


def _run(key: str, workdir) -> tuple[str, int]:
    mode, name = key.split(":", 1)
    if mode == "roundtrip":
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(BUILTIN_SCENARIOS[name]().to_dict()),
                        encoding="utf-8")
        argv = ["run", str(path), *ARGS]
    else:
        argv = ["run", name, *ARGS, "--format", mode]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), code


def test_every_case_has_a_recorded_hash():
    assert sorted(GOLDEN) == sorted(_cases())


@pytest.mark.parametrize("key", sorted(_cases()))
def test_output_matches_recorded_hash(key, tmp_path):
    assert _run(key, tmp_path) == GOLDEN[key]


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key in sorted(_cases()):
            digest, code = _run(key, pathlib.Path(tmp))
            print(f'    "{key}": ("{digest}", {code}),')
