"""Sequence labeling with document-level context windows.

A desk-scale toolkit for span-based tagging that flanks every sentence
with subtoken context from its neighbors before encoding. Ships both
standard architectures: a fine-tuned transformer with a linear or CRF
head, and a frozen-feature BiLSTM-CRF.
"""

from .context import ContextConfig, ContextualizedSentence, SubtokenStream, build_context
from .corpus import (Corpus, Document, ParseError, Sentence, Span, TagScheme, Token,
                     convert_scheme, parse_conll, spans_from_tags)
from .encoder import (StaticEmbeddingTable, TransformerConfig, TransformerEncoder,
                      concat_word_embeddings, extract_core_tokens, pool_layers)
from .evaluation import (EvalReport, RunAggregate, aggregate_runs, per_type_delta,
                         score)
from .experiments import ExperimentConfig, run_experiment, sweep_context
from .model import NerModel, predict_corpus
from .tagger import (BiLstmParams, CrfParams, Packing, bilstm_forward, crf_nll,
                     greedy_decode, linear_head, viterbi)
from .tokenizer import SubwordEncoding, SubwordVocab, encode, train_vocab
from .training import (FeatureBasedConfig, FineTuneConfig, TrainLog, one_cycle_lr,
                       train_feature_based, train_finetune)

__version__ = "0.1.0"

__all__ = [
    "ContextConfig", "ContextualizedSentence", "SubtokenStream", "build_context",
    "Corpus", "Document", "ParseError", "Sentence", "Span", "TagScheme", "Token",
    "convert_scheme", "parse_conll", "spans_from_tags",
    "StaticEmbeddingTable", "TransformerConfig", "TransformerEncoder",
    "concat_word_embeddings", "extract_core_tokens", "pool_layers",
    "EvalReport", "RunAggregate", "aggregate_runs", "per_type_delta", "score",
    "ExperimentConfig", "run_experiment", "sweep_context",
    "NerModel", "predict_corpus",
    "BiLstmParams", "CrfParams", "Packing", "bilstm_forward", "crf_nll",
    "greedy_decode", "linear_head", "viterbi",
    "SubwordEncoding", "SubwordVocab", "encode", "train_vocab",
    "FeatureBasedConfig", "FineTuneConfig", "TrainLog", "one_cycle_lr",
    "train_feature_based", "train_finetune",
    "__version__",
]
