"""Span tracer for the benchmark's traced run.

Each layer is timed by wrapping its public function at the attribute its
caller looks it up through: ``docner.model`` imports ``encode_transformer``,
``crf_nll``, ``viterbi`` and the other heads by name, ``docner.context``
imports ``encode`` and ``docner.training`` imports ``score``, so patching
only the defining module would time nothing. ``Tensor.__matmul__`` and the
``ad.<op>`` calls resolve ``docner.autodiff.<op>`` at call time, so the
autodiff ops are patched in their own module. Only forward ops are timed;
their backward closures run inside ``autodiff.backward``.

A span records its trace id, name, start, end and the index of its parent
span. Spans stay in memory until the run ends. A layer's self time is its
span's duration minus the time its child spans cover; spans of one trace
nest strictly because the program is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# span name -> [("module" or "module:Class", attribute the caller looks up)]
SPANNED = {
    "corpus.parse_conll": [("docner.synthetic", "parse_conll")],
    "corpus.with_predictions": [("docner.model", "with_predictions"),
                                ("docner.training", "with_predictions")],
    "tokenizer.train_vocab": [("docner.tokenizer", "train_vocab")],
    "tokenizer.encode": [("docner.context", "encode")],
    "context.contextualize": [("docner.model:NerModel", "contextualize")],
    "encoder.forward": [("docner.model", "encode_transformer")],
    "encoder.pool": [("docner.model", "pool_layers")],
    "encoder.extract": [("docner.model", "extract_core_tokens")],
    **{f"autodiff.{op}": [("docner.autodiff", op)]
       for op in ("matmul", "softmax", "gelu", "layer_norm", "take_rows",
                  "narrow", "log_sum_exp", "concat")},
    **{f"tagger.{fn}": [("docner.model", fn)]
       for fn in ("linear_head", "bilstm_forward", "crf_nll", "viterbi",
                  "greedy_decode")},
    "training.optimizer": [("docner.training:AdamW", "step"),
                           ("docner.training:Sgd", "step")],
    "training.frozen_features": [("docner.model:NerModel", "frozen_features")],
    "model.decode_tags": [("docner.model:NerModel", "decode_tags")],
    "evaluation.score": [("docner.evaluation", "score"),
                         ("docner.training", "score")],
}

# spans whose time inside a train trace is the feature recipe's dev scoring
DEV_EVAL_SPANS = frozenset({"model.decode_tags", "evaluation.score",
                            "corpus.with_predictions"})


def _resolve(path: str):
    """The module, or the class inside a module, that `path` names."""
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def count_graph(root) -> int:
    """Number of distinct nodes reachable from `root` through `_parents`."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """Records spans and counters while its patches are installed."""

    def __init__(self):
        self.spans: list[list] = []  # [trace, name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []  # hooks that found nothing to wrap or count
        self.pad_id = -1
        self._cache_sizes: dict[int, tuple[object, int]] = {}  # id -> (vocab, entries)
        self._stack: list[int] = []
        self._trace = ""
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._trace, name, perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][3] = perf_counter()
        self._stack.pop()

    @contextmanager
    def trace(self, trace_id: str, name: str):
        """Root span of one setup, train, predict or tag call."""
        self._trace = trace_id
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)
            self._trace = ""

    def _spanned(self, original, name: str, after=None):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                self._count(after, args, result)
            return result
        return wrapper

    def _count(self, hook, *args) -> None:
        """Run a counter hook. A hook that no longer fits the program is
        listed in ``missing``, which the run counts as a failed operation."""
        try:
            hook(*args)
        except (AttributeError, TypeError, IndexError, KeyError):
            if hook.__name__ not in self.missing:
                self.missing.append(hook.__name__)

    # -- patching ------------------------------------------------------------

    def _patch(self, path: str, attr: str, make_replacement) -> None:
        try:
            owner = _resolve(path)
            original = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            if f"{path}.{attr}" not in self.missing:
                self.missing.append(f"{path}.{attr}")
            return
        setattr(owner, attr, make_replacement(original))
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        after = {"context.contextualize": self._after_contextualize,
                 "encoder.forward": self._after_forward,
                 "tokenizer.encode": self._after_encode}
        for name, sites in SPANNED.items():
            for path, attr in sites:
                self._patch(path, attr, functools.partial(
                    self._spanned, name=name, after=after.get(name)))
        self._patch("docner.autodiff:Tensor", "backward", self._backward)
        self._patch("docner.model", "fit_to_length", self._fit_to_length)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counters ------------------------------------------------------------

    def _after_contextualize(self, args, ctx) -> None:
        self.pad_id = args[0].vocab.pad_id
        c = self.counters
        c["context.assembled_len"] += ctx.assembled_length
        c["context.left"] += len(ctx.left_ids)
        c["context.right"] += len(ctx.right_ids)

    def _after_forward(self, args, hidden) -> None:
        ids = args[0].assembled_ids()
        self.counters["encoder.rows"] += hidden[0].shape[0]
        self.counters["encoder.useful_rows"] += len(ids) - ids.count(self.pad_id)

    def _after_encode(self, args, encoding) -> None:
        """Token lookups, and cache hits: the lookups that added no cache entry."""
        tokens, vocab = args
        size = len(vocab._cache)
        _, before = self._cache_sizes.get(id(vocab), (vocab, 0))
        self._cache_sizes[id(vocab)] = (vocab, size)  # the reference pins the id
        self.counters["tokenizer.token_lookups"] += len(tokens)
        self.counters["tokenizer.token_cache_hits"] += len(tokens) - (size - before)

    def _count_tape(self, tensor) -> None:
        self.counters["autodiff.tape_nodes"] += count_graph(tensor)

    def _backward(self, original):
        @functools.wraps(original)
        def backward(tensor):
            # counted before the span opens so the walk is not backward time
            self._count(self._count_tape, tensor)
            index = self._open("autodiff.backward")
            try:
                return original(tensor)
            finally:
                self._close(index)
        return backward

    def _fit_to_length(self, original):
        counters = self.counters

        @functools.wraps(original)
        def fit_to_length(ctx, max_length):
            fitted = original(ctx, max_length)
            if fitted.assembled_length < ctx.assembled_length:
                counters["context.truncated"] += 1
            return fitted
        return fit_to_length

    # -- reports -------------------------------------------------------------

    def _covered(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return covered

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        table: dict[str, dict[str, float]] = {}
        for (_, name, start, end, _), child in zip(self.spans, self._covered()):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child
        return table

    def root_durations(self) -> dict[str, list[float]]:
        """Per root span name (setup, train, ...): the duration of each call.

        A root's duration is the sum of the self times of its trace's spans.
        """
        roots: dict[str, list[float]] = defaultdict(list)
        for _, name, start, end, parent in self.spans:
            if parent < 0:
                roots[name].append(end - start)
        return roots

    def dev_eval_seconds(self) -> float:
        """Inclusive time of dev decoding and scoring inside train traces."""
        total = 0.0
        for trace, name, start, end, parent in self.spans:
            if (trace.startswith("train") and name in DEV_EVAL_SPANS and parent >= 0
                    and self.spans[parent][1] not in DEV_EVAL_SPANS):
                total += end - start
        return total

    def write_spans(self, path) -> None:
        """One JSON object per line: id, trace, name, start, end, parent id."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (trace, name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "trace": trace, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")
