"""The benchmark's tracer still finds every layer it wraps.

``perfbench/tracer.py`` patches each layer at the attribute its caller looks
it up through. A rename or a changed import leaves that layer's figures at 0
and is only reported by a traced benchmark run; this runs both training
recipes and tagging at toy size under the tracer instead.
"""

import importlib.util
from pathlib import Path

import docner.synthetic as synthetic
import docner.tokenizer as tokenizer
import docner.training as training
from docner.context import ContextConfig
from docner.encoder import TransformerConfig
from docner.model import NerModel, predict_corpus

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
TOY = TransformerConfig(layers=1, heads=2, model_dim=16, ff_dim=32, max_positions=64)


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_both_recipes():
    train = synthetic.cue_corpus(6, seed=7)
    dev = synthetic.cue_corpus(3, seed=8, split="dev")
    test = synthetic.cue_corpus(3, seed=9, split="test")
    vocab = tokenizer.train_vocab(train, 80)  # through the module, where it is hooked
    finetune = NerModel(vocab, train.label_set, TOY, context=ContextConfig(8, True),
                        seed=1)
    training.train_finetune(finetune, train, training.FineTuneConfig(max_epochs=1),
                            seed=1)
    # static word embeddings join the encoder rows with autodiff.concat, which
    # no other layer of either recipe calls
    feature = NerModel(vocab, train.label_set, TOY, context=ContextConfig(8, True),
                       mode="feature", head="crf", bilstm_hidden=4,
                       use_word_embeddings=True, word_dim=4, seed=1)
    training.train_feature_based(
        feature, train, training.FeatureBasedConfig(max_epochs=1, batch_size=4),
        seed=1, dev_corpus=dev)
    sentence = next(test.sentences())
    for model in (finetune, feature):
        predict_corpus(model, test)
        # the benchmark's tagging pass: one sentence at a time
        model.decode_tags(sentence.texts, model.contextualize(sentence, test),
                          test.scheme)


def test_every_hook_finds_its_layer():
    tracer_module = load_tracer_module()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        run_both_recipes()
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert 0 < tracer.counters["encoder.useful_rows"] <= tracer.counters["encoder.rows"]
    recorded = {name for _, name, *_ in tracer.spans}
    assert set(tracer_module.SPANNED) <= recorded
