"""Data layer: records, JSONL files, tags, vocabularies, stores, batching."""

from repro.data.record import Record
from repro.data.jsonl import read_records, write_records
from repro.data.dataset import Dataset
from repro.data.tags import (
    DEFAULT_SPLITS,
    TagTable,
    is_slice_tag,
    slice_name,
    slice_tag,
)
from repro.data.vocab import PAD, UNK, Vocab
from repro.data.rowstore import ColumnStore, RowStore
from repro.data.query import RecordQuery
from repro.data.batching import (
    Batch,
    PayloadInputs,
    encode_inputs,
    extract_targets,
    iterate_batches,
)
from repro.data.encoded import EncodedDataset

__all__ = [
    "Record",
    "read_records",
    "write_records",
    "Dataset",
    "DEFAULT_SPLITS",
    "TagTable",
    "is_slice_tag",
    "slice_name",
    "slice_tag",
    "PAD",
    "UNK",
    "Vocab",
    "RowStore",
    "ColumnStore",
    "Batch",
    "PayloadInputs",
    "encode_inputs",
    "extract_targets",
    "iterate_batches",
    "EncodedDataset",
    "RecordQuery",
]
