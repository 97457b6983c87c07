"""Every output byte of a fixed CLI matrix, against the committed copy in
tests/data/pinned/ (see tests/pinned_outputs.py, which also regenerates it).
A change to a decision, a value's last bit or a column order fails here."""

from pinned_outputs import (
    REGENERATE, build, column_changes, expected, generate, key_changes, recorded_build,
)


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


def test_a_changed_csv_is_reported_column_by_column():
    old = b"step,rel_err,decision\n0,0.5,FULL\n1,0.25,CACHE\n"
    new = b"step,rel_err,decision,reason\n0,0.50000000000000011,FULL,warmup\n1,0.25,FULL,drift\n"
    assert column_changes(old, new) == "added reason, rel_err max rel 2.2e-16, decision max rel inf"
    assert column_changes(old, old.rsplit(b"1,", 1)[0]) == "2 -> 1 rows"


def test_a_changed_manifest_is_reported_key_by_key():
    old = b"[skipper]\neta = 0.2\nwarmup_fulls = 3\n\n[output]\nrun_id = a\nc_cache = 0.01\n"
    new = b"[skipper]\neta = 0.3\nlookahead = false\n\n[output]\nrun_id = a\n"
    assert key_changes(old, new) == (
        "added skipper.lookahead, removed skipper.warmup_fulls, changed skipper.eta 0.2 -> 0.3, "
        "removed output.c_cache"
    )
    assert key_changes(old, old.replace(b" = ", b"=")) == ""
