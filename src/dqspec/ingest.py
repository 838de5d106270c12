"""CSV ingestion: dialects and the forward reader over one CSV file, and
the one quoting rule that the flagged protocol and generated corpora
write with (`csv_line`).

Readers stream one record at a time and deliver dense 1-based record
ordinals; `DatasetReader.seek` moves a reader to a known record
boundary. Rows whose cell count disagrees with the declared width, a
blank line among them, are surfaced as ragged records, never as
exceptions. Input that is not CSV at all (a quote left open at
the end of the file, text after a closing quote, a field longer than
csv's limit of 131,072 characters) or not UTF-8 raises DataError.
"""

from __future__ import annotations

import codecs
import csv
import itertools
import os
from dataclasses import dataclass


class DataError(Exception):
    """I/O or structural problem that aborts a run (exit code 3)."""


class HeaderMissingColumn(DataError):
    pass


# what a cell is trimmed of before null-token matching and parsing
ASCII_WS = " \t\r\n\f\v"


@dataclass(frozen=True)
class DialectConfig:
    delimiter: str = ","
    quote: str = '"'
    has_header: bool = True
    null_tokens: tuple[str, ...] = ("",)

    def __post_init__(self):
        if len(self.delimiter) != 1 or len(self.quote) != 1:
            raise ValueError("delimiter and quote must be single characters")
        if self.delimiter == self.quote:
            raise ValueError("delimiter and quote must differ")
        if {self.delimiter, self.quote} & {"\r", "\n"}:
            # csv takes either as the end of a record
            raise ValueError("delimiter and quote may not be a line break")
        for tok in self.null_tokens:
            if tok != tok.strip(ASCII_WS):
                # a trimmed cell can never equal it
                raise ValueError(f"null token {tok!r} may not begin or end with whitespace")


def csv_rows(lines, dialect: DialectConfig):
    """csv.reader over `lines` (a text stream opened with newline="").
    strict: an unclosed quote or text after a closing quote raises
    csv.Error instead of being read as some other record."""
    return csv.reader(lines, delimiter=dialect.delimiter, quotechar=dialect.quote, strict=True)


def csv_field(text: str) -> str:
    """One field as the flagged protocol and generated corpora write it:
    quoted, with inner quotes doubled, when it holds a comma, a quote, a
    CR or an LF; otherwise as it is."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_line(*fields) -> str:
    """One record of `csv_field`s. A record of one empty field is `""`,
    as csv.writer writes it, since an empty line reads back as no field."""
    if fields == ("",):
        return '""\n'
    return ",".join([csv_field(str(f)) for f in fields]) + "\n"


class DatasetReader:
    """Single-consumer forward reader over one CSV file.

    Iterating yields (ordinal, cells, ragged): ordinal is the dense
    1-based data-row position, cells the raw cell list, and ragged is
    True when the width disagrees with the expected column count (such
    records must be skipped by rule evaluation but still counted).
    """

    def __init__(self, path: str, dialect: DialectConfig):
        self.path = path
        self.dialect = dialect
        try:
            # utf-8-sig tolerates and strips a BOM
            self._fh = open(path, "r", encoding="utf-8-sig", newline="")
        except OSError as exc:
            raise DataError(f"cannot open dataset {path!r}: {exc}") from None
        self._rows = csv_rows(self._fh, dialect)
        self.header: list[str] | None = None
        self.width: int | None = None
        self.data_rows_read = 0
        try:
            first = next(self._rows)
        except StopIteration:
            first = None
        except UnicodeDecodeError as exc:
            err = self._not_utf8(exc)
            self.close()
            raise err from None
        except csv.Error as exc:
            self.close()
            where = "the header" if dialect.has_header else "record 1"
            raise DataError(f"{path}: malformed CSV in {where}: {exc}") from None
        if dialect.has_header:
            self.header = first
            if first is not None:
                self.width = len(first)
        elif first is not None:
            # headerless: the first data row fixes the expected width
            self._rows = itertools.chain((first,), self._rows)
            self.width = len(first)

    def resolve(self, column: str | int) -> int:
        """Map a 1-based index or header name to a 0-based cell index."""
        if isinstance(column, int):
            if column < 1:
                raise DataError(f"{self.path}: column index {column} is not 1-based")
            if self.width is not None and column > self.width:
                raise HeaderMissingColumn(
                    f"{self.path}: column index {column} exceeds width {self.width}"
                )
            return column - 1
        if self.header is None:
            raise HeaderMissingColumn(
                f"{self.path}: no header row; cannot bind column {column!r}"
            )
        try:
            return self.header.index(column)
        except ValueError:
            raise HeaderMissingColumn(
                f"{self.path}: header has no column {column!r}"
            ) from None

    def seek(self, offset: int, ordinal: int) -> None:
        """Go on reading at byte `offset`, where record `ordinal` + 1
        starts; `offset` > 0, so no BOM or header is read there."""
        self._fh.seek(offset)
        self._rows = csv_rows(self._fh, self.dialect)
        self.data_rows_read = ordinal

    def __iter__(self):
        ordinal = self.data_rows_read
        try:
            for cells in self._rows:
                ordinal += 1
                self.data_rows_read = ordinal
                yield ordinal, cells, len(cells) != self.width
        except UnicodeDecodeError as exc:
            raise self._not_utf8(exc) from None
        except csv.Error as exc:
            raise DataError(
                f"{self.path}: malformed CSV in record {ordinal + 1}: {exc}"
            ) from None

    def _not_utf8(self, exc: UnicodeDecodeError) -> DataError:
        """A codec counts its position from the start of its buffer, so
        the file is decoded again from its start, a block at a time, to
        name its first bad byte wherever the failed read began."""
        why, decoder, done = exc, codecs.getincrementaldecoder("utf-8")(), 0
        try:
            self._fh.buffer.seek(0)
            while block := self._fh.buffer.read(1 << 20):
                decoder.decode(block)
                done += len(block)
            decoder.decode(b"", final=True)
        except UnicodeDecodeError as bad:  # bad.object: held-back bytes, then the block
            why = f"{bad.reason} at byte offset {done - len(decoder.getstate()[0]) + bad.start}"
        except OSError:  # a pipe cannot seek
            pass
        return DataError(f"{self.path}: not valid UTF-8: {why}")

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def open_dataset(path: str, dialect: DialectConfig | None = None) -> DatasetReader:
    if not os.path.exists(path):
        raise DataError(f"dataset not found: {path}")
    return DatasetReader(path, dialect or DialectConfig())


__all__ = [
    "DataError",
    "HeaderMissingColumn",
    "DialectConfig",
    "DatasetReader",
    "open_dataset",
]
