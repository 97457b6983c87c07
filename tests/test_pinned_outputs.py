"""Every output byte of a fixed CLI matrix, against the committed copy in
tests/data/pinned/ (see tests/pinned_outputs.py, which also regenerates it).
A change to a decision, a value's last bit or a column order fails here."""

from pinned_outputs import REGENERATE, build, expected, generate, recorded_build


def _first_difference(name: str, want: bytes, got: bytes) -> str:
    want_lines, got_lines = want.decode().splitlines(), got.decode().splitlines()
    for number, (w, g) in enumerate(zip(want_lines, got_lines), start=1):
        if w != g:
            return f"{name} line {number}:\n  expected {w!r}\n  got      {g!r}"
    shorter = min(len(want_lines), len(got_lines))
    return (f"{name} line {shorter + 1}: expected {len(want_lines)} lines, "
            f"got {len(got_lines)}")


def test_cli_matrix_outputs_match_the_pinned_bytes(tmp_path):
    want, got = expected(), generate(tmp_path)
    assert sorted(got) == sorted(want), (
        f"missing {sorted(want.keys() - got.keys())}, "
        f"unexpected {sorted(got.keys() - want.keys())}"
    )
    for name in sorted(want):
        if got[name] != want[name]:
            raise AssertionError(
                _first_difference(name, want[name], got[name])
                + f"\n(data made with {recorded_build()}; this is {build()}."
                f" An intended change regenerates it: {REGENERATE})"
            )
