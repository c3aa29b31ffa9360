"""Reader simulation substrate: hardware stand-ins for RFID readers.

Models the read behaviours that generate the paper's data-quality
problems — miss rates, dwell re-reads, overlapping coverage, duplicate
tags — and the stream plumbing that merges distributed readers into one
ordered observation stream.
"""

from .reader import Reader, ReaderArray
from .recording import load_stream, read_stream, save_stream, write_stream
from .streams import (
    assert_ordered,
    inject_duplicates,
    merge_streams,
    sort_stream,
)

__all__ = [
    "assert_ordered",
    "inject_duplicates",
    "load_stream",
    "merge_streams",
    "read_stream",
    "Reader",
    "ReaderArray",
    "save_stream",
    "sort_stream",
    "write_stream",
]
