"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup``. Every round
of a run gets freshly set-up inputs and calls ``run_round(state, k, rec,
memo)``, where ``k`` is the round index and ``memo`` is a dict that lasts
the whole run, across set-ups. Rounds repeat until the run's time is up.
A round is a closed loop with one caller: every operation starts when
the previous one has returned. Each operation is timed from outside, its
output is checked, and a failed check or an exception counts it as
failed. README.md in this directory says why each workload exists and
which layers it exercises.

Sizes are dataclass fields so the benchmark's own tests can run the same
code on smoke-sized inputs.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
from dataclasses import dataclass, replace

import numpy as np

import picrf.cli
import picrf.corpus
import picrf.model_io
import picrf.training
from picrf.corpus import Sentence, SynthConfig, rotation_rule, validate_iob2, write_conll
from picrf.crf import state_space, total_parameters
from picrf.crf_types import ModelOrder
from picrf.evaluation import score, second_entity_accuracy
from picrf.features import TemplateConfig
from picrf.induction import build_expanded_alphabet

TRAIN_ORDERS = ("first", "pre-induced")
ALL_ORDERS = ("first", "pre-induced", "second")
# modes every workload runs ``picrf tag`` in:
# (metric suffix, model order, extra picrf tag arguments)
TAG_MODES = (
    ("first", "first", ()),
    ("pre-induced", "pre-induced", ()),
    ("constrained", "pre-induced", ("--constrained",)),
)
# Derived corpus seeds are seed + POOL_STRIDE * k, so the pools of runs with
# seeds below POOL_STRIDE never share a corpus, and k = 0 is the seed itself.
POOL_STRIDE = 1000
# L-BFGS iterations of each longdist training run
LONGDIST_ITERATIONS = 12
# ordercost: Gaussian prior variance of the objective, and the standard
# deviation of the seeded weights it is evaluated at
L2_VARIANCE = 10.0
WEIGHT_SCALE = 0.1
# ordercost: objective calls per round for first and pre-induced (second: one)
OBJECTIVE_REPEATS = 3
# ordercost: L-BFGS iterations of the models it tags with
TAG_MODEL_ITERATIONS = 5
# times a round runs every picrf tag mode
TAG_REPEATS = 2


class CheckFailed(Exception):
    """An operation's output is wrong."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def tokens_of(sentences):
    return sum(len(s) for s in sentences)


def computed(value):
    return {"value": value, "source": "computed"}


def reported(value):
    return {"value": value, "source": "picrf"}


def write_unlabeled(sentences, path):
    """Write the tokens of ``sentences`` as a CoNLL file for ``picrf tag``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(write_conll([Sentence(s.tokens) for s in sentences]))


def require_loads_back(model, path):
    """The model saved at ``path`` must load back with bit-identical weights."""
    loaded = picrf.model_io.load_model(path)
    require(
        loaded.weights.shape == model.weights.shape
        and np.array_equal(loaded.weights.view(np.uint64), model.weights.view(np.uint64)),
        "saved model does not load back bit-identically",
    )


def tag_all(rec, models, input_path, gold, workdir, repeats):
    """``picrf tag`` the input in every mode, ``repeats`` times over.

    Each command is one operation: its output must keep the input's
    tokens and be strict IOB2. Returns each mode's predicted labels.
    """
    predicted = {}
    for mode, order, extra in TAG_MODES * repeats:
        output = os.path.join(workdir, "tagged-%s.conll" % mode)
        with rec.op("tag", mode):
            require(order in models, "no %s model to tag with" % order)
            argv = ["tag", "--model", models[order], "--input", input_path,
                    "--output", output, *extra]
            start = time.perf_counter()
            status = picrf.cli.main(argv)
            elapsed = time.perf_counter() - start
            require(status == 0, "picrf tag exited with %r" % status)
            with open(output, "r", encoding="utf-8") as handle:
                tagged = picrf.corpus.read_conll(handle, label_column=-1)
            require(len(tagged) == len(gold), "tag output has %d sentences" % len(tagged))
            for i, (out, ref) in enumerate(zip(tagged, gold)):
                require(out.texts == ref.texts, "sentence %d: tokens changed" % i)
                validate_iob2(out.labels, mode="strict")
            rec.timing("tag_sps." + mode, elapsed, work=len(gold))
            predicted[mode] = [s.labels for s in tagged]
    return predicted


@dataclass(frozen=True)
class LongDist:
    """Criterion-5 split: 2 types, gaps 2-6, identity rule, feature set 1.

    Trains first and pre-induced through the library for a fixed number
    of L-BFGS iterations and saves each model, then tags the test split
    with ``picrf tag`` and scores it. The round with index k uses corpus
    k (mod the pool size) of a pool generated from the seed.
    """

    name = "longdist"
    default_seed = 0
    train_size: int = 2000
    test_size: int = 500
    pool: int = 6

    def setup(self, seed, workdir, rec):
        synth = SynthConfig(
            entity_type_count=2,
            sentences=self.train_size + self.test_size,
            gap_lengths=(2, 3, 4, 5, 6),
        )
        splits = []
        for k in range(self.pool):
            corpus = picrf.corpus.generate_synthetic(replace(synth, seed=seed + POOL_STRIDE * k))
            test = corpus[self.train_size :]
            test_path = os.path.join(workdir, "test%d.conll" % k)
            write_unlabeled(test, test_path)
            splits.append((corpus[: self.train_size], test, test_path))
        alphabet = build_expanded_alphabet(synth.entity_types)
        return {"splits": splits, "alphabet": alphabet, "workdir": workdir}

    def bases(self, state):
        train, test, _ = state["splits"][0]
        out = {
            "corpus_seeds_per_pool_entry": computed(self.pool),
            "train_sentences": computed(len(train)),
            "train_tokens": computed(tokens_of(train)),
            "test_sentences": computed(len(test)),
            "test_tokens": computed(tokens_of(test)),
            "max_iterations": computed(LONGDIST_ITERATIONS),
            "tag_repeats": computed(TAG_REPEATS),
        }
        for order in TRAIN_ORDERS:
            n_states = state_space(ModelOrder(order), state["alphabet"]).n_states
            out["lattice_cells_per_call." + order] = computed(
                tokens_of(train) * n_states * n_states
            )
        return out

    def run_round(self, state, k, rec, memo):
        train_corpus, test_corpus, test_path = state["splits"][k % len(state["splits"])]
        models = {}
        for order in TRAIN_ORDERS:
            config = picrf.training.TrainConfig(
                model_order=ModelOrder(order),
                template=TemplateConfig(set_id=1),
                max_iterations=LONGDIST_ITERATIONS,
                relative_tolerance=1e-300,
            )
            with rec.op("train", order):
                start = time.perf_counter()
                model, report = picrf.training.train(train_corpus, config, state["alphabet"])
                elapsed = time.perf_counter() - start
                require(np.all(np.isfinite(model.weights)), "non-finite trained weights")
                rec.timing("op_s." + order, elapsed)
                rec.note("parameters." + order, reported(report.n_parameters))
                path = os.path.join(state["workdir"], "%s.model" % order)
                picrf.model_io.save_model(model, path)
                require_loads_back(model, path)
                models[order] = path
        predicted = tag_all(rec, models, test_path, test_corpus, state["workdir"], TAG_REPEATS)
        with rec.op("score", "pre-induced"):
            require(set(predicted) == {m for m, _, _ in TAG_MODES}, "a tag mode failed")
            f1 = {m: score(test_corpus, p).f1 for m, p in predicted.items()}
            accuracy = {m: second_entity_accuracy(test_corpus, p) for m, p in predicted.items()}
            # criterion-5 bounds of the acceptance gate
            require(accuracy["first"] <= 0.60, "first second-entity accuracy %.4f > 0.60" % accuracy["first"])
            require(
                accuracy["pre-induced"] >= 0.95,
                "pre-induced second-entity accuracy %.4f < 0.95" % accuracy["pre-induced"],
            )
            gap = f1["pre-induced"] - f1["first"]
            require(gap >= 0.15, "F1 gap %.4f < 0.15" % gap)
            for mode in predicted:
                rec.sample("f1." + mode, f1[mode])
                rec.sample("second_entity_acc." + mode, accuracy[mode])


@dataclass(frozen=True)
class OrderCost:
    """Criterion-6 corpus: 5 types, 2000 sentences, feature set 1.

    Setup compiles the corpus for every order, draws one weight vector per
    order from the seed, and trains and saves first and pre-induced models
    on a prefix of the corpus. A round calls the objective and gradient
    at the seeded weights, ``OBJECTIVE_REPEATS`` times for first and
    pre-induced and once for second, then tags the whole corpus with
    ``picrf tag`` in every mode, ``TAG_REPEATS`` times over, with the saved
    models. ``second`` runs on
    a fixed prefix of the corpus so that a round fits the run budget; it
    is not tagged.
    """

    name = "ordercost"
    default_seed = 6
    sentences: int = 2000
    second_prefix: int = 200
    tag_model_size: int = 200

    def setup(self, seed, workdir, rec):
        synth = SynthConfig(entity_type_count=5, sentences=self.sentences, seed=seed)
        corpus = picrf.corpus.generate_synthetic(synth)
        alphabet = build_expanded_alphabet(synth.entity_types)
        template = TemplateConfig(set_id=1)
        problems = {}
        for i, order in enumerate(ALL_ORDERS):
            sentences = corpus[: self.second_prefix] if order == "second" else corpus
            space = state_space(ModelOrder(order), alphabet)
            with rec.stage("compile", order):
                index = picrf.training.build_feature_index(sentences, template, alphabet, space.order)
                compiled = picrf.training.compile_corpus(sentences, template, index, space)
            rng = np.random.default_rng([seed, i])
            weights = rng.normal(0.0, WEIGHT_SCALE, total_parameters(index, space))
            problems[order] = {
                "batch": compiled,
                "weights": weights,
                "index": index,
                "space": space,
                "sentences": len(sentences),
                "tokens": tokens_of(sentences),
            }
        # Seeded weights decode to invalid IOB2, so the models picrf tag
        # uses are trained briefly on a prefix instead.
        models = {}
        for order in TRAIN_ORDERS:
            config = picrf.training.TrainConfig(
                model_order=ModelOrder(order),
                template=template,
                max_iterations=TAG_MODEL_ITERATIONS,
                relative_tolerance=1e-300,
            )
            with rec.stage("train", order):
                model, _ = picrf.training.train(corpus[: self.tag_model_size], config, alphabet)
                path = os.path.join(workdir, "%s.model" % order)
                picrf.model_io.save_model(model, path)
            models[order] = {"path": path, "model": model}
        tag_path = os.path.join(workdir, "tag.conll")
        write_unlabeled(corpus, tag_path)
        return {
            "corpus": corpus,
            "problems": problems,
            "models": models,
            "tag_path": tag_path,
            "workdir": workdir,
        }

    def bases(self, state):
        out = {
            "tag_sentences": computed(len(state["corpus"])),
            "tag_repeats": computed(TAG_REPEATS),
            "tag_model_train_sentences": computed(self.tag_model_size),
            "tag_model_iterations": computed(TAG_MODEL_ITERATIONS),
        }
        for order, p in state["problems"].items():
            n_states = p["space"].n_states
            out["sentences." + order] = computed(p["sentences"])
            out["tokens." + order] = computed(p["tokens"])
            out["parameters." + order] = computed(int(p["weights"].size))
            out["states." + order] = computed(n_states)
            out["lattice_cells_per_call." + order] = computed(p["tokens"] * n_states * n_states)
        return out

    def run_round(self, state, k, rec, memo):
        for order, p in state["problems"].items():
            for _ in range(1 if order == "second" else OBJECTIVE_REPEATS):
                self._objective(order, p, rec, memo)
        models = {}
        for order, saved in state["models"].items():
            with rec.op("load-check", order):
                require_loads_back(saved["model"], saved["path"])
                models[order] = saved["path"]
        tag_all(rec, models, state["tag_path"], state["corpus"], state["workdir"], TAG_REPEATS)

    @staticmethod
    def _objective(order, p, rec, memo):
        """One objective-and-gradient call at the seeded weights, checked."""
        with rec.op("objective", order):
            start = time.perf_counter()
            value, grad = picrf.training.log_likelihood_and_gradient(
                p["batch"], p["weights"], p["index"], p["space"], L2_VARIANCE
            )
            elapsed = time.perf_counter() - start
            require(np.isfinite(value), "non-finite objective %r" % value)
            require(np.all(np.isfinite(grad)), "non-finite gradient")
            # same seed, same inputs: the result must repeat bit for bit,
            # across calls and across set-ups
            first = memo.setdefault(order, (value, grad))
            require(
                first[0] == value and np.array_equal(first[1], grad),
                "objective at fixed weights changed between calls",
            )
            name = "op_s." if order in TRAIN_ORDERS else "objective_s."
            rec.timing(name + order, elapsed)


def _synthetic_lexicon_config(size, seed, vocab):
    filler, first_entity, shared = vocab
    config = SynthConfig(
        entity_type_count=5,
        sentences=size,
        seed=seed,
        gap_lengths=tuple(range(1, 16)),
        max_trailing_fillers=10,
        filler_vocab_size=filler,
        first_entity_vocab_size=first_entity,
        shared_vocab_size=shared,
    )
    return replace(config, dependency_rule=rotation_rule(config.entity_types))


@contextlib.contextmanager
def capturing_saves():
    """Keep each model ``picrf train`` saves, by path, to check that it loads back."""
    captured = {}
    original = picrf.cli.save_model

    def capturing(model, destination):
        captured[os.fspath(destination)] = model
        return original(model, destination)

    picrf.cli.save_model = capturing
    try:
        yield captured
    finally:
        picrf.cli.save_model = original


@dataclass(frozen=True)
class Lexical:
    """Large-vocabulary synthetic corpus through the ``picrf`` command.

    5 types, rotation rule, gaps 1-15, up to 10 trailing fillers, feature
    set 2. A round runs ``picrf train --max-iters N`` for first and
    pre-induced, then ``picrf tag`` on a held-out unlabeled file three
    ways, ``TAG_REPEATS`` times over. The round with index k uses corpus k
    (mod the pool size) of a pool written in setup.
    """

    name = "lexical"
    default_seed = 0
    train_size: int = 250
    test_size: int = 400
    pool: int = 5
    max_iterations: int = 4
    vocab: tuple = (20000, 1000, 2000)

    def setup(self, seed, workdir, rec):
        pool = []
        for k in range(self.pool):
            config = _synthetic_lexicon_config(
                self.train_size + self.test_size, seed + POOL_STRIDE * k, self.vocab
            )
            corpus = picrf.corpus.generate_synthetic(config)
            train, test = corpus[: self.train_size], corpus[self.train_size :]
            directory = os.path.join(workdir, "corpus%d" % k)
            os.makedirs(directory, exist_ok=True)
            paths = {
                "train": os.path.join(directory, "train.conll"),
                "test": os.path.join(directory, "test.conll"),
            }
            with open(paths["train"], "w", encoding="utf-8") as handle:
                handle.write(write_conll(train))
            write_unlabeled(test, paths["test"])
            pool.append({"paths": paths, "test": test, "train_tokens": tokens_of(train)})
        return {"pool": pool, "workdir": workdir}

    def bases(self, state):
        entry = state["pool"][0]
        return {
            "train_sentences": computed(self.train_size),
            "train_tokens": computed(entry["train_tokens"]),
            "test_sentences": computed(self.test_size),
            "test_tokens": computed(tokens_of(entry["test"])),
            "max_iterations": computed(self.max_iterations),
            "tag_repeats": computed(TAG_REPEATS),
            "vocabulary_filler_first_shared": computed(list(self.vocab)),
        }

    def run_round(self, state, k, rec, memo):
        entry = state["pool"][k % len(state["pool"])]
        models = {}
        with capturing_saves() as captured:
            for order in TRAIN_ORDERS:
                path = os.path.join(state["workdir"], "%s.model" % order)
                argv = [
                    "train", "--train", entry["paths"]["train"], "--order", order,
                    "--features", "2", "--max-iters", str(self.max_iterations), "--out", path,
                ]
                with rec.op("train", order):
                    with contextlib.redirect_stdout(io.StringIO()):
                        start = time.perf_counter()
                        status = picrf.cli.main(argv)
                        elapsed = time.perf_counter() - start
                    require(status == 0, "picrf train exited with %r" % status)
                    saved = captured.get(path)
                    require(saved is not None, "picrf train saved no model")
                    require(np.all(np.isfinite(saved.weights)), "non-finite trained weights")
                    require_loads_back(saved, path)
                    rec.timing("op_s." + order, elapsed)
                    rec.note("parameters." + order, reported(int(saved.weights.size)))
                    rec.note("model_bytes." + order, computed(os.path.getsize(path)))
                    models[order] = path
        tag_all(rec, models, entry["paths"]["test"], entry["test"], state["workdir"], TAG_REPEATS)


WORKLOADS = {w.name: w for w in (LongDist(), OrderCost(), Lexical())}
