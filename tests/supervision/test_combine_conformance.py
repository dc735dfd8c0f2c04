"""Bit-for-bit conformance of the array supervision path with the loops it replaced.

``src/repro/supervision`` builds label matrices, takes the majority vote,
runs EM and scatters targets as whole-array operations.  The per-item loop
versions it replaced live on here, verbatim in behaviour, as the reference
oracle: every output must be *equal*, not close — the float reductions were
kept in their original form and order precisely so this holds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Schema
from repro.data import Record
from repro.supervision import (
    ABSTAIN,
    LabelMatrix,
    LabelModel,
    build_bitvector_matrices,
    build_label_matrix,
    combine_supervision,
    majority_vote,
)
from repro.supervision.label_model import model_confidence
from repro.supervision.majority import _restrict_to_valid, vote_confidence
from repro.workloads import resolve_workload


# ----------------------------------------------------------------------
# Reference: the loop implementations
# ----------------------------------------------------------------------
def ref_majority_vote(matrix: LabelMatrix) -> np.ndarray:
    n, k = matrix.n_items, matrix.cardinality
    probs = np.zeros((n, k))
    for i in range(n):
        row = matrix.votes[i]
        present = row[row != ABSTAIN]
        if len(present) == 0:
            probs[i] = 1.0 / k
            continue
        counts = np.bincount(present, minlength=k).astype(float)
        winners = counts == counts.max()
        probs[i, winners] = 1.0 / winners.sum()
    if matrix.item_cardinality is not None:
        probs = ref_restrict_to_valid(probs, matrix.item_cardinality)
    return probs


def ref_restrict_to_valid(
    probs: np.ndarray, item_cardinality: np.ndarray
) -> np.ndarray:
    out = probs.copy()
    k = probs.shape[1]
    for i, card in enumerate(item_cardinality):
        card = int(card)
        if card <= 0:
            out[i] = 0.0
            continue
        if card < k:
            out[i, card:] = 0.0
        total = out[i].sum()
        if total > 0:
            out[i] /= total
        else:
            out[i, :card] = 1.0 / card
    return out


def ref_valid_mask(matrix: LabelMatrix) -> np.ndarray:
    n, k = matrix.n_items, matrix.cardinality
    if matrix.item_cardinality is None:
        return np.ones((n, k), dtype=bool)
    mask = np.zeros((n, k), dtype=bool)
    for i, card in enumerate(matrix.item_cardinality):
        mask[i, : max(int(card), 1)] = True
    return mask


def ref_conflict(matrix: LabelMatrix) -> float:
    if matrix.n_items == 0:
        return 0.0
    conflicts = 0
    for row in matrix.votes:
        present = row[row != ABSTAIN]
        if len(present) >= 2 and len(set(present.tolist())) > 1:
            conflicts += 1
    return conflicts / matrix.n_items


def ref_label_model_fit(model: LabelModel, matrix: LabelMatrix) -> dict:
    """The EM loop with per-source masks recomputed every iteration."""
    votes = matrix.votes
    n, m = votes.shape
    k = matrix.cardinality
    valid_mask = ref_valid_mask(matrix)
    posterior = ref_majority_vote(matrix)
    posterior = np.where(valid_mask, posterior, 0.0)
    posterior = LabelModel._renormalize(posterior, valid_mask)
    class_acc = np.full((m, k), 0.7)
    prior = np.full(k, 1.0 / k)
    log_likelihood = -np.inf
    iterations = 0
    for iterations in range(1, model.max_iterations + 1):
        prior = posterior.mean(axis=0)
        prior = np.clip(prior, 1e-8, None)
        prior = prior / prior.sum()
        for j in range(m):
            voted = votes[:, j] != ABSTAIN
            if not voted.any():
                class_acc[j] = 0.5
                continue
            idx = np.nonzero(voted)[0]
            v = votes[idx, j]
            post = posterior[idx]
            mass_per_class = post.sum(axis=0)
            hit = np.zeros(k)
            for y in range(k):
                hit[y] = post[v == y, y].sum()
            pooled = hit.sum() / max(mass_per_class.sum(), 1e-8)
            class_acc[j] = (hit + model.shrinkage * pooled) / (
                mass_per_class + model.shrinkage
            )
        class_acc = np.clip(class_acc, model.accuracy_floor, model.accuracy_ceiling)
        log_post = np.broadcast_to(np.log(prior), (n, k)).copy()
        for j in range(m):
            voted = votes[:, j] != ABSTAIN
            if not voted.any():
                continue
            idx = np.nonzero(voted)[0]
            v = votes[idx, j]
            log_acc = np.log(class_acc[j])
            log_err = np.log((1.0 - class_acc[j]) / (k - 1))
            contribution = np.broadcast_to(log_err, (len(idx), k)).copy()
            match = v[:, None] == np.arange(k)[None, :]
            contribution = np.where(
                match, np.broadcast_to(log_acc, (len(idx), k)), contribution
            )
            log_post[idx] += contribution
        log_post = np.where(valid_mask, log_post, -np.inf)
        row_max = log_post.max(axis=1, keepdims=True)
        shifted = np.exp(log_post - row_max)
        norms = shifted.sum(axis=1, keepdims=True)
        posterior = shifted / norms
        new_ll = float((np.log(norms).squeeze(-1) + row_max.squeeze(-1)).sum())
        if abs(new_ll - log_likelihood) < model.tolerance:
            log_likelihood = new_ll
            break
        log_likelihood = new_ll
    return {
        "probs": posterior,
        "accuracies": (class_acc * prior[None, :]).sum(axis=1),
        "prior": prior,
        "iterations": iterations,
        "log_likelihood": log_likelihood,
        "class_accuracies": class_acc,
    }


def ref_sources(records, task_name, exclude=()) -> list[str]:
    seen: set[str] = set()
    for record in records:
        seen.update(record.sources_for(task_name))
    return [s for s in sorted(seen) if s not in set(exclude)]


def ref_build_label_matrix(records, schema, task_name, source_list) -> LabelMatrix:
    task = schema.task(task_name)
    payload = schema.payload(task.payload)
    source_pos = {s: j for j, s in enumerate(source_list)}
    if task.type == "multiclass" and payload.type == "sequence":
        length = payload.max_length or 0
        rows, index = [], []
        for i, record in enumerate(records):
            seq = record.payloads.get(payload.name) or []
            n_pos = min(len(seq), length)
            block = np.full((n_pos, len(source_list)), ABSTAIN, dtype=np.int64)
            for source, labels in record.sources_for(task_name).items():
                j = source_pos.get(source)
                if j is None or labels is None:
                    continue
                for t in range(n_pos):
                    if t < len(labels) and labels[t] is not None:
                        block[t, j] = task.class_index(labels[t])
            rows.append(block)
            index.extend((i, t) for t in range(n_pos))
        votes = (
            np.concatenate(rows, axis=0)
            if rows
            else np.zeros((0, len(source_list)), dtype=np.int64)
        )
        item_index = np.array(index or np.zeros((0, 2)), dtype=np.int64).reshape(-1, 2)
        return LabelMatrix(votes, source_list, task.num_classes, item_index)
    index = (
        np.stack([np.arange(len(records)), np.full(len(records), -1)], axis=1)
        if records
        else np.zeros((0, 2), dtype=np.int64)
    )
    votes = np.full((len(records), len(source_list)), ABSTAIN, dtype=np.int64)
    if task.type == "multiclass":
        for i, record in enumerate(records):
            for source, label in record.sources_for(task_name).items():
                j = source_pos.get(source)
                if j is not None and label is not None:
                    votes[i, j] = task.class_index(label)
        return LabelMatrix(
            votes, source_list, task.num_classes, np.asarray(index, dtype=np.int64)
        )
    max_members = payload.max_members or 0
    item_card = np.zeros(len(records), dtype=np.int64)
    for i, record in enumerate(records):
        members = record.payloads.get(payload.name) or []
        item_card[i] = min(len(members), max_members)
        for source, label in record.sources_for(task_name).items():
            j = source_pos.get(source)
            if j is not None and label is not None and 0 <= int(label) < max_members:
                votes[i, j] = int(label)
    return LabelMatrix(
        votes, source_list, max_members, np.asarray(index, dtype=np.int64), item_card
    )


def ref_build_bitvector_matrices(records, schema, task_name, source_list):
    task = schema.task(task_name)
    payload = schema.payload(task.payload)
    source_pos = {s: j for j, s in enumerate(source_list)}
    is_sequence = payload.type == "sequence"
    length = payload.max_length or 0
    index = []
    per_class_rows = {c: [] for c in task.classes}
    for i, record in enumerate(records):
        if is_sequence:
            n_pos = min(len(record.payloads.get(payload.name) or []), length)
        else:
            n_pos = 1
        blocks = {
            c: np.full((n_pos, len(source_list)), ABSTAIN, dtype=np.int64)
            for c in task.classes
        }
        for source, labels in record.sources_for(task_name).items():
            j = source_pos.get(source)
            if j is None or labels is None:
                continue
            positions = labels if is_sequence else [labels]
            for t in range(n_pos):
                if t >= len(positions) or positions[t] is None:
                    continue
                present = set(positions[t])
                for c in task.classes:
                    blocks[c][t, j] = 1 if c in present else 0
        for c in task.classes:
            per_class_rows[c].append(blocks[c])
        index.extend((i, t if is_sequence else -1) for t in range(n_pos))
    item_index = np.array(index or np.zeros((0, 2)), dtype=np.int64).reshape(-1, 2)
    out = {}
    for c in task.classes:
        votes = (
            np.concatenate(per_class_rows[c], axis=0)
            if per_class_rows[c]
            else np.zeros((0, len(source_list)), dtype=np.int64)
        )
        out[c] = LabelMatrix(votes, source_list, 2, item_index)
    return out


def ref_fit(matrix: LabelMatrix, method: str):
    if method == "majority":
        weights = (vote_confidence(matrix) > 0).astype(float)
        return ref_majority_vote(matrix), weights, {}
    result = ref_label_model_fit(LabelModel(), matrix)
    k = matrix.cardinality
    if matrix.n_items:
        confidence = np.clip(
            (result["probs"].max(axis=1) - 1.0 / k) / (1.0 - 1.0 / k), 0.0, 1.0
        )
    else:
        confidence = np.zeros(0)
    weights = confidence * (matrix.votes != ABSTAIN).any(axis=1).astype(float)
    accuracies = {
        s: float(result["accuracies"][j]) for j, s in enumerate(matrix.sources)
    }
    return result["probs"], weights, accuracies


def ref_combine(records, schema, task_name, method, source_list):
    """Build, fit and scatter one item at a time."""
    task = schema.task(task_name)
    payload = schema.payload(task.payload)
    n = len(records)
    is_sequence = payload.type == "sequence"
    length = payload.max_length or 0
    if task.type == "bitvector":
        matrices = ref_build_bitvector_matrices(records, schema, task_name, source_list)
        k = task.num_classes
        probs = np.zeros((n, length, k)) if is_sequence else np.zeros((n, k))
        weights = np.zeros((n, length)) if is_sequence else np.zeros(n)
        accuracies = {}
        for c_idx, cls_name in enumerate(task.classes):
            matrix = matrices[cls_name]
            cls_probs, cls_weights, cls_acc = ref_fit(matrix, method)
            for row, (rec_idx, pos) in enumerate(matrix.item_index):
                if is_sequence:
                    probs[rec_idx, pos, c_idx] = cls_probs[row, 1]
                    weights[rec_idx, pos] = max(weights[rec_idx, pos], cls_weights[row])
                else:
                    probs[rec_idx, c_idx] = cls_probs[row, 1]
                    weights[rec_idx] = max(weights[rec_idx], cls_weights[row])
            for source, acc in cls_acc.items():
                accuracies[f"{source}[{cls_name}]"] = acc
        return probs, weights, accuracies
    matrix = ref_build_label_matrix(records, schema, task_name, source_list)
    probs, weights, accuracies = ref_fit(matrix, method)
    if task.type == "multiclass" and is_sequence:
        full_probs = np.zeros((n, length, task.num_classes))
        full_weights = np.zeros((n, length))
        for row, (rec_idx, pos) in enumerate(matrix.item_index):
            full_probs[rec_idx, pos] = probs[row]
            full_weights[rec_idx, pos] = weights[row]
        return full_probs, full_weights, accuracies
    return probs, weights, accuracies


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------
def assert_same_array(got, want, what=""):
    assert got.dtype == want.dtype, (what, got.dtype, want.dtype)
    assert got.shape == want.shape, (what, got.shape, want.shape)
    assert np.array_equal(got, want), what


def assert_same_matrix(got: LabelMatrix, want: LabelMatrix):
    assert_same_array(got.votes, want.votes, "votes")
    assert_same_array(got.item_index, want.item_index, "item_index")
    assert got.sources == want.sources
    assert got.cardinality == want.cardinality
    if want.item_cardinality is None:
        assert got.item_cardinality is None
    else:
        assert_same_array(
            got.item_cardinality, want.item_cardinality, "item_cardinality"
        )


def assert_same_model(matrix: LabelMatrix, model: LabelModel | None = None):
    model = model or LabelModel()
    got = model.fit(matrix)
    want = ref_label_model_fit(model, matrix)
    assert got.iterations == want["iterations"]
    assert float(got.log_likelihood).hex() == float(want["log_likelihood"]).hex()
    for name in ("probs", "accuracies", "prior", "class_accuracies"):
        assert_same_array(getattr(got, name), want[name], name)


# ----------------------------------------------------------------------
# (a) Application.combine on the synth workloads
# ----------------------------------------------------------------------
@pytest.mark.parametrize("preset", ["synth-easy", "synth-medium", "synth-hard"])
@pytest.mark.parametrize("method", ["label_model", "majority"])
def test_application_combine_matches_the_loops(preset, method):
    built = resolve_workload(preset, scale=200, seed=11)
    app = built.application
    records = built.dataset.split("train").records
    gold = app.supervision.gold_source
    targets, combined = app.combine(records, method=method)
    assert set(combined) == {t.name for t in app.schema.tasks}
    for task in app.schema.tasks:
        everyone = ref_sources(records, task.name)
        source_list = everyone if everyone == [gold] else ref_sources(
            records, task.name, exclude=[gold]
        )
        probs, weights, accuracies = ref_combine(
            records, app.schema, task.name, method, source_list
        )
        got = combined[task.name]
        assert_same_array(got.probs, probs, f"{task.name} probs")
        assert_same_array(got.weights, weights, f"{task.name} weights")
        assert list(got.source_accuracies.items()) == list(accuracies.items())
        assert targets[task.name].probs is got.probs


@pytest.mark.parametrize("preset", ["synth-easy", "synth-hard"])
def test_builders_and_models_match_on_synth_records(preset):
    built = resolve_workload(preset, scale=120, seed=5)
    schema = built.application.schema
    records = built.dataset.split("train").records
    for task in schema.tasks:
        source_list = ref_sources(records, task.name)
        if task.type == "bitvector":
            got = build_bitvector_matrices(records, schema, task.name)
            want = ref_build_bitvector_matrices(records, schema, task.name, source_list)
            assert list(got) == list(want)
            matrices = []
            for cls_name in want:
                assert_same_matrix(got[cls_name], want[cls_name])
                matrices.append(got[cls_name])
        else:
            got = build_label_matrix(records, schema, task.name)
            assert_same_matrix(
                got, ref_build_label_matrix(records, schema, task.name, source_list)
            )
            matrices = [got]
        for matrix in matrices:
            assert matrix.conflict() == ref_conflict(matrix)
            assert_same_model(matrix)


# ----------------------------------------------------------------------
# Builders on ragged, gappy hand-made records
# ----------------------------------------------------------------------
RAGGED_SCHEMA = {
    "payloads": {
        "tokens": {"type": "sequence", "max_length": 5},
        "query": {"type": "singleton", "base": ["tokens"]},
        "entities": {"type": "set", "range": "tokens", "max_members": 3},
    },
    "tasks": {
        "POS": {"payload": "tokens", "type": "multiclass", "classes": ["N", "V", "A"]},
        "Types": {"payload": "tokens", "type": "bitvector", "classes": ["p", "q", "r"]},
        "Topics": {"payload": "query", "type": "bitvector", "classes": ["x", "y"]},
        "Intent": {
            "payload": "query",
            "type": "multiclass",
            "classes": ["a", "b", "c"],
        },
        "Arg": {"payload": "entities", "type": "select"},
    },
}
RAGGED_SOURCES = ["s0", "s1", "s2", "never"]


def ragged_records(n: int, seed: int) -> list[Record]:
    """Records exercising every gap the builders tolerate.

    Sequences shorter and longer than ``max_length`` (and missing), label
    lists shorter and longer than the sequence, ``None`` positions and
    ``None`` labels, sources absent from a record, bitvector names outside
    the schema, select votes below 0 and at or past ``max_members``.
    """
    rng = np.random.default_rng(seed)

    def maybe(value):
        return None if rng.random() < 0.15 else value

    def some(names):
        return [str(c) for c in rng.choice(names, size=int(rng.integers(0, 3)))]

    records = []
    for _ in range(n):
        length = int(rng.integers(0, 8))
        payloads = {"query": "q"}
        if rng.random() < 0.9:
            payloads["tokens"] = [f"t{t}" for t in range(length)]
        if rng.random() < 0.9:
            payloads["entities"] = [{"id": e} for e in range(int(rng.integers(0, 5)))]
        tasks: dict[str, dict] = {}
        for source in RAGGED_SOURCES[:3]:
            if rng.random() < 0.3:
                continue
            n_labels = max(0, length + int(rng.integers(-2, 3)))
            tasks.setdefault("POS", {})[source] = maybe(
                [maybe(str(rng.choice(["N", "V", "A"]))) for _ in range(n_labels)]
            )
            tasks.setdefault("Types", {})[source] = maybe(
                [maybe(some(["p", "q", "r", "zz"])) for _ in range(n_labels)]
            )
            tasks.setdefault("Topics", {})[source] = maybe(some(["x", "y", "zz"]))
            tasks.setdefault("Intent", {})[source] = maybe(
                str(rng.choice(["a", "b", "c"]))
            )
            tasks.setdefault("Arg", {})[source] = maybe(int(rng.integers(-1, 5)))
        records.append(Record(payloads=payloads, tasks=tasks))
    return records


@pytest.mark.parametrize("n,seed", [(0, 0), (1, 1), (40, 2), (75, 3)])
def test_builders_match_on_ragged_records(n, seed):
    schema = Schema.from_dict(RAGGED_SCHEMA)
    records = ragged_records(n, seed)
    for task in schema.tasks:
        for source_list in (RAGGED_SOURCES, ["s2", "s0"]):
            if task.type == "bitvector":
                got = build_bitvector_matrices(
                    records, schema, task.name, sources=source_list
                )
                want = ref_build_bitvector_matrices(
                    records, schema, task.name, source_list
                )
                assert list(got) == list(want)
                for cls_name in want:
                    assert_same_matrix(got[cls_name], want[cls_name])
            else:
                assert_same_matrix(
                    build_label_matrix(records, schema, task.name, sources=source_list),
                    ref_build_label_matrix(records, schema, task.name, source_list),
                )


@pytest.mark.parametrize("method", ["label_model", "majority"])
def test_combine_supervision_matches_on_ragged_records(method):
    schema = Schema.from_dict(RAGGED_SCHEMA)
    records = ragged_records(60, seed=7)
    for task in schema.tasks:
        got = combine_supervision(records, schema, task.name, method=method)
        probs, weights, accuracies = ref_combine(
            records, schema, task.name, method, ref_sources(records, task.name)
        )
        assert_same_array(got.probs, probs, f"{task.name} probs")
        assert_same_array(got.weights, weights, f"{task.name} weights")
        assert list(got.source_accuracies.items()) == list(accuracies.items())


# ----------------------------------------------------------------------
# (b) Seeded random matrices
# ----------------------------------------------------------------------
def random_matrix(rng, n: int, m: int, k: int, select: bool) -> LabelMatrix:
    votes = rng.integers(0, k, size=(n, m))
    votes[rng.random((n, m)) < 0.35] = ABSTAIN
    if n >= 8:
        votes[0] = ABSTAIN  # a row nobody labeled
        votes[1] = np.arange(m) % k  # an exact tie whenever m <= k
        votes[2] = 0  # unanimous
        votes[3, : m // 2], votes[3, m // 2 :] = 0, k - 1  # two-way split
    if m >= 2:
        votes[:, m - 1] = ABSTAIN  # a source that never voted
    item_cardinality = None
    if select:
        item_cardinality = rng.integers(0, k + 1, size=n)
        if n >= 8:
            item_cardinality[:6] = [0, 1, k, 1, 0, k]
            votes[5, 0] = k - 1  # a vote at the last slot of a full item
            votes[6], item_cardinality[6] = k - 1, 1  # every vote past the item's slots
    return LabelMatrix(
        votes=votes.astype(np.int64),
        sources=[f"s{j}" for j in range(m)],
        cardinality=k,
        item_index=np.stack([np.arange(n), np.full(n, -1)], axis=1).astype(np.int64),
        item_cardinality=item_cardinality,
    )


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 9])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_random_matrices_match_the_loops(k, m):
    rng = np.random.default_rng(1000 * k + m)
    for n in (0, 1, 8, 150):
        for select in (False, True):
            matrix = random_matrix(rng, n, m, k, select)
            assert_same_array(
                majority_vote(matrix), ref_majority_vote(matrix), "majority"
            )
            assert_same_array(
                LabelModel._valid_mask(matrix), ref_valid_mask(matrix), "valid_mask"
            )
            assert matrix.conflict() == ref_conflict(matrix)
            if n:  # the n == 0 fit returns fixed defaults on both sides
                assert_same_model(matrix, LabelModel(max_iterations=25))
            else:
                assert LabelModel().fit(matrix).iterations == 0
                assert model_confidence(LabelModel().fit(matrix)).shape == (0,)


def test_restrict_to_valid_matches_on_arbitrary_probabilities():
    rng = np.random.default_rng(3)
    for k in (2, 3, 6, 9):
        probs = rng.random((200, k))
        probs[rng.random((200, k)) < 0.4] = 0.0
        probs[:5] = 0.0
        card = rng.integers(-1, k + 2, size=200)
        got = _restrict_to_valid(probs, card)
        assert_same_array(got, ref_restrict_to_valid(probs, card), f"k={k}")
    empty = _restrict_to_valid(np.zeros((0, 4)), np.zeros(0, dtype=np.int64))
    assert empty.shape == (0, 4)


def test_votes_outside_the_label_space_are_rejected():
    from repro.errors import SupervisionError

    matrix = random_matrix(np.random.default_rng(0), 8, 3, 3, select=False)
    matrix.votes[4, 0] = 3
    with pytest.raises(SupervisionError, match=r"in \[0, 3\)"):
        majority_vote(matrix)
