"""`check --jobs N` over byte blocks: cuts placed on purpose where a
block parse can go wrong, the fall-back to the sequential reader and
sources that are not regular files. Every run must give the bytes of
`--jobs 1`."""

import os
import random
import threading

import pytest

from dqspec import engine, ingest
from dqspec.lang import check_spec
from helpers import check_captured, write_csv
from randgen import rand_dataset, rand_executable_spec

SPEC = """
spec s {{
  source d {{ path 'd.csv'; header {header}; }}
  object d from d {{
    field id column 1 integer unique;
    field name column 2 text not null matches '[a-z]+';
    field note column 3 text;
    rule r: name is not null or note is null;
  }}
  threshold cap: invalid_records <= 10%;
}}
"""

BOM = b"\xef\xbb\xbf"


def _rows(n: int, start: int = 1) -> list[str]:
    """Data lines with duplicate ids, null and non-matching names, and
    a ragged record."""
    out = []
    for i in range(start, start + n):
        name = "" if i % 7 == 0 else ("X1" if i % 11 == 0 else "abcdef"[: i % 5 + 1])
        out.append(f"{i % 13},{name},n{i}" if i % 17 else f"{i},{name}")
    return out


def _csv(lines: list[str], eol: str = "\n", header: bool = True) -> bytes:
    head = ["id,name,note"] if header else []
    return eol.join(head + lines).encode("utf-8") + eol.encode()


def _block_bytes_where(monkeypatch, path, holds) -> int:
    """The smallest block size at which `holds(data, cuts)` is true for
    the file at `path`; sets engine.BLOCK_BYTES to it."""
    data = path.read_bytes()
    for size in range(8, 400):
        monkeypatch.setattr(engine, "BLOCK_BYTES", size)
        if holds(data, engine._cuts(str(path))):
            return size
    pytest.fail("no block size puts a cut where the case needs one")


def _many_blocks(data, cuts) -> bool:
    """More than three blocks, which cover the whole file."""
    return len(cuts) > 3 and cuts[-1][1] == len(data)


def _cut_after(marker: bytes):
    """A cut just after the first newline inside `marker`."""

    def holds(data, cuts):
        at = data.index(marker) + marker.index(b"\n") + 1
        return _many_blocks(data, cuts) and any(end == at for _start, end in cuts)

    return holds


def _blank_line_starts_a_block(data, cuts) -> bool:
    starts = [start for start, _end in cuts[1:]]
    return _many_blocks(data, cuts) and any(data[start:start + 1] == b"\n" for start in starts)


def _stray_quote_before_a_cut(data, cuts) -> bool:
    at = data.index(b'b"c')
    return _many_blocks(data, cuts) and any(start < at < end < len(data) for start, end in cuts[1:])


def _blocks_end_before_the_long_line(data, cuts) -> bool:
    return len(cuts) > 3 and cuts[-1][1] < data.index(b"y" * 100) < cuts[-1][1] + 100


CASES = {
    # the cut falls inside a quoted field: that block fails its parse
    # and the rest of the file is read sequentially
    "quoted newline across a cut": (
        _csv(_rows(12) + ['40,abc,"line one\nline two"'] + _rows(12, 50)),
        True, _cut_after(b"line one\nline two"), True,
    ),
    # a quote inside an unquoted field is a literal character, so the
    # block parses as the file does
    "stray quote": (
        _csv(_rows(12) + ['40,b"c,d'] + _rows(12, 50)), True, _stray_quote_before_a_cut, False,
    ),
    "blank line at a block start": (
        _csv(_rows(12) + [""] + _rows(12, 50)), True, _blank_line_starts_a_block, False,
    ),
    "BOM": (BOM + _csv(_rows(30)), True, _many_blocks, False),
    # without a header the BOM would reach the first cell
    "BOM without header": (BOM + _csv(_rows(30), header=False), False, _many_blocks, False),
    "CRLF": (
        _csv(_rows(12) + ['40,abc,"one\r\ntwo"'] + _rows(12, 50), eol="\r\n"),
        True, _cut_after(b"one\r\ntwo"), True,
    ),
    "headerless": (_csv(_rows(30), header=False), False, _many_blocks, False),
    # no newline within two block sizes: the rest of the file is read
    # sequentially, so no block is ever larger
    "long line": (
        _csv(_rows(12) + ["40,abc," + "y" * 500] + _rows(12, 50)),
        True, _blocks_end_before_the_long_line, True,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_block_cuts_give_the_bytes_of_jobs_1(tmp_path, monkeypatch, case):
    data, header, holds, resumes_inside = CASES[case]
    (tmp_path / "s.dq").write_text(SPEC.format(header=str(header).lower()), encoding="utf-8")
    (tmp_path / "d.csv").write_bytes(data)
    one = check_captured(tmp_path, 1)
    assert one[0] == 1 and one[2] == "" and one[3].count(b"\n") > 10

    size = _block_bytes_where(monkeypatch, tmp_path / "d.csv", holds)
    assert all(end - start <= 2 * size for start, end in engine._cuts(str(tmp_path / "d.csv")))
    resumed = []
    real_seek = ingest.DatasetReader.seek

    def seek(self, offset, ordinal):
        resumed.append(offset)
        return real_seek(self, offset, ordinal)

    monkeypatch.setattr(ingest.DatasetReader, "seek", seek)
    assert check_captured(tmp_path, 2) == one
    # the reader goes on inside the file only where the blocks stopped
    assert (resumed != [len(data)]) is resumes_inside, resumed


def test_duplicate_across_blocks_is_flagged_with_its_own_raw_cell(tmp_path, monkeypatch):
    """Id 7 comes in early blocks; ` 007`, the same integer, opens a
    later block and is the duplicate, flagged with its raw cell."""
    data = _csv(_rows(30) + [" 007,abc,n31"] + _rows(12, 50))
    (tmp_path / "s.dq").write_text(SPEC.format(header="true"), encoding="utf-8")
    (tmp_path / "d.csv").write_bytes(data)
    one = check_captured(tmp_path, 1)
    assert b"\n31,d.id.unique,id, 007,error,duplicate of an earlier record\n" in one[3]

    _block_bytes_where(monkeypatch, tmp_path / "d.csv", _cut_after(b"n30\n 007"))
    assert check_captured(tmp_path, 2) == one


def test_malformed_record_in_a_late_block_exit_3_as_at_jobs_1(tmp_path, monkeypatch):
    bad = '40,"abc"x,n40'
    data = _csv(_rows(40) + [bad] + _rows(12, 50))
    (tmp_path / "s.dq").write_text(SPEC.format(header="true"), encoding="utf-8")
    (tmp_path / "d.csv").write_bytes(data)
    one = check_captured(tmp_path, 1)
    assert one[0] == 3 and one[1] == b"" and one[3] is None
    assert one[2] == f"{tmp_path / 'd.csv'}: malformed CSV in record 41: ',' expected after '\"'\n"

    at = data.index(bad.encode())
    _block_bytes_where(monkeypatch, tmp_path / "d.csv", lambda _d, cuts: cuts[3][0] <= at)
    assert check_captured(tmp_path, 2) == one


def _die_in_worker(*_args):
    os._exit(7)


def test_fifo_source_is_read_sequentially_at_jobs_2(tmp_path, monkeypatch):
    data = _csv(_rows(30))
    (tmp_path / "s.dq").write_text(SPEC.format(header="true"), encoding="utf-8")
    (tmp_path / "d.csv").write_bytes(data)
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    # a worker pool would end the run with exit 3
    monkeypatch.setattr(engine, "_worker_init", _die_in_worker)
    outs = []
    for jobs in (1, 2):
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        outs.append(check_captured(tmp_path, jobs, "--data", f"d={fifo}"))
        writer.join(timeout=30)
        assert not writer.is_alive()
    # the same bytes as from the regular file
    assert outs[0] == outs[1] == check_captured(tmp_path, 1)
    assert outs[0][0] == 1


def test_random_specs_over_tiny_blocks_match_jobs_1(tmp_path, monkeypatch):
    """C3's random specs and datasets at jobs 2 over 64-byte blocks give
    the report and the violations of jobs 1."""
    monkeypatch.setattr(engine, "BLOCK_BYTES", 64)
    trials = 50
    cut = 0
    for seed in range(trials):
        rng = random.Random(900_000 + seed)
        spec = rand_executable_spec(rng)
        data = rand_dataset(rng, spec)
        base = tmp_path / str(seed)
        base.mkdir()
        paths = {name: write_csv(base / f"{name}.csv", rows) for name, rows in data.items()}
        plan = engine.compile_plan(check_spec(spec))
        cut += len(engine._cuts(paths["main"])) > 1
        runs = []
        for jobs in (1, 2):
            viols = []
            runs.append((engine.run(plan, paths, jobs=jobs, violation_sink=viols.append), viols))
        assert runs[1] == runs[0], seed
    # most files are cut into several blocks
    assert cut > trials // 2, cut
