"""The one-node CRF scores keep the per-op tape's bits.

`crf.log_partition` and `crf.path_score` must give the values and the
gradients of `crf_oracle`, which builds one tape node per operation: the
same dtype and the same bytes, for every tensor the scores read. The cases
cover single tokens and long sentences, gold paths that repeat a
transition, losses that send a negative or non-unit gradient into the
scores, gradients added onto slots that already hold values, inputs that
carry no gradient, and mixed precision. Training ae and multitask through
the harness must also log, save and update the same bits both ways.
"""

import itertools
from pathlib import Path

import crf_oracle
import numpy as np
import pytest
from bitwise import assert_same_bits

from absalab import crf, harness
from absalab.autograd import ShapeError, Tensor
from absalab.crf import CrfParams
from absalab.harness import ExperimentConfig

LENGTHS = (1, 2, 3, 8, 20, 35)


def golds(n, gen):
    return {
        "random": [crf.LABELS[i] for i in gen.integers(0, 3, size=n)],
        "all-I": ["I"] * n,
        "all-O": ["O"] * n,
        "BIIOO": list(itertools.islice(itertools.cycle("BIIOO"), n)),
    }


# loss name -> builder; the scores are looked up in `crf` at call time
LOSSES = {
    "nll": lambda e, gold, p: crf.nll(e, gold, p),
    "log_partition": lambda e, gold, p: crf.log_partition(e, p),
    "path_score": lambda e, gold, p: crf.path_score(e, gold, p),
    "negated-nll": lambda e, gold, p: crf.path_score(e, gold, p) - crf.log_partition(e, p),
    "weighted": lambda e, gold, p: crf.log_partition(e, p) * 0.37 + crf.path_score(e, gold, p) * 1.9,
}

TABLES = ("transitions", "start", "end")


def make_arrays(gen, n, scale, dtype, wide=()):
    """Emissions times `scale` and random tables, in `dtype`; the names in `wide` in float64."""
    shapes = {"emissions": (n, 3), "transitions": (3, 3), "start": (3,), "end": (3,)}
    return {name: (gen.normal(size=shape) * (scale if name == "emissions" else 1.0))
            .astype(np.float64 if name in wide else dtype) for name, shape in shapes.items()}


def crf_params(tensors) -> CrfParams:
    """The score tables of `tensors`; the scores never read the emission projection."""
    unused = Tensor(np.zeros(1))
    return CrfParams(unused, unused, *(tensors[name] for name in TABLES))


def run(loss, arrays, gold, grad_of=("emissions", *TABLES), preset=None):
    """Value bits, the loss node's requires_grad, and each input's gradient
    after backward (None where none was made), from fresh tensors."""
    tensors = {name: Tensor(a.copy(), requires_grad=name in grad_of) for name, a in arrays.items()}
    for name, g in (preset or {}).items():
        tensors[name].grad = g.copy()
    params = crf_params(tensors)
    # plain arrays when the emissions carry no gradient, as eval-time callers pass them
    emissions = tensors["emissions"] if "emissions" in grad_of else arrays["emissions"].copy()
    out = LOSSES[loss](emissions, gold, params)
    if out.requires_grad:
        out.backward()
    grads = {name: (None if t.grad is None else t.grad.copy()) for name, t in tensors.items()}
    return out.data.copy(), out.requires_grad, grads


def assert_matches_oracle(monkeypatch, loss, arrays, gold, **kwargs):
    value, needs, grads = run(loss, arrays, gold, **kwargs)
    with monkeypatch.context() as patched:
        crf_oracle.swap_in(patched)
        want_value, want_needs, want_grads = run(loss, arrays, gold, **kwargs)
    assert needs == want_needs
    assert_same_bits(value, want_value, f"{loss} value")
    for name in want_grads:
        assert_same_bits(grads[name], want_grads[name], f"{loss} gradient of {name}")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", LENGTHS)
def test_scores_and_gradients_match_the_per_op_tape(monkeypatch, n, dtype):
    gen = np.random.default_rng(100 + n)
    # scale 40 drives many path weights to an exact 0.0
    for scale, gold, loss in itertools.product((1.0, 40.0), golds(n, gen).values(), LOSSES):
        arrays = make_arrays(gen, n, scale, dtype)
        assert_matches_oracle(monkeypatch, loss, arrays, gold)


@pytest.mark.parametrize("n", [1, 2, 20])
def test_gradients_add_onto_filled_slots_like_the_tape(monkeypatch, n):
    gen = np.random.default_rng(7 + n)
    arrays = make_arrays(gen, n, 2.0, np.float32)
    preset = {name: gen.normal(size=a.shape).astype(np.float32) for name, a in arrays.items()}
    for loss in LOSSES:
        assert_matches_oracle(monkeypatch, loss, arrays, golds(n, gen)["BIIOO"], preset=preset)


GUARDS = {
    "plain-emissions": TABLES,
    "frozen-tables": ("emissions",),
    "transitions-only": ("transitions",),
    "start-and-end-only": ("start", "end"),
    "nothing": (),
}


@pytest.mark.parametrize("guard", sorted(GUARDS))
@pytest.mark.parametrize("n", [1, 2, 8])
def test_inputs_without_gradient_match_the_tape(monkeypatch, guard, n):
    gen = np.random.default_rng(31 + n)
    arrays = make_arrays(gen, n, 1.5, np.float32)
    for loss in LOSSES:
        assert_matches_oracle(monkeypatch, loss, arrays, golds(n, gen)["random"], grad_of=GUARDS[guard])


@pytest.mark.parametrize("wide", [("emissions",), TABLES, ("transitions",), ("start",), ("end",)])
@pytest.mark.parametrize("n", [1, 2, 8])
def test_mixed_precision_matches_the_tape(monkeypatch, n, wide):
    # float32 with some inputs in float64: every cast the tape makes, onto filled slots
    gen = np.random.default_rng(53 + n)
    for loss in LOSSES:
        arrays = make_arrays(gen, n, 3.0, np.float32, wide)
        preset = {name: gen.normal(size=a.shape).astype(a.dtype) for name, a in arrays.items()}
        assert_matches_oracle(monkeypatch, loss, arrays, golds(n, gen)["random"], preset=preset)


def test_each_score_is_one_tape_node():
    arrays = make_arrays(np.random.default_rng(3), 20, 1.0, np.float32)
    tensors = {name: Tensor(a, requires_grad=True) for name, a in arrays.items()}
    emissions, params = tensors["emissions"], crf_params(tensors)
    for score in (crf.log_partition(emissions, params), crf.path_score(emissions, ["O"] * 20, params)):
        assert {id(p) for p in score._parents} == {id(t) for t in tensors.values()}


def test_score_errors_are_unchanged():
    params = crf_params({"transitions": Tensor(np.zeros((3, 3))), "start": Tensor(np.zeros(3)),
                         "end": Tensor(np.zeros(3))})
    with pytest.raises(ValueError, match="log_partition requires at least one position"):
        crf.log_partition(np.zeros((0, 3)), params)
    with pytest.raises(ValueError, match="path_score requires at least one position"):
        crf.path_score(np.zeros((0, 3)), [], params)
    with pytest.raises(ValueError, match="label count 1 does not match 2"):
        crf.path_score(np.zeros((2, 3)), ["B"], params)
    with pytest.raises(ShapeError, match="emissions must be n x 3"):
        crf.log_partition(np.zeros((2, 4)), params)


# -- training through the harness ---------------------------------------------------------


def train_and_record(config, monkeypatch):
    """Each step's gradients and updated parameters, and every file the run wrote."""
    steps = []
    adam_step = harness.adam_step

    def recording_adam_step(store, adam):
        steps.append({name: store.gradient(name).copy() for name in store.names()})
        adam_step(store, adam)
        steps.append(store.state_dict())

    with monkeypatch.context() as patched:
        patched.setattr(harness, "adam_step", recording_adam_step)
        harness.train(config)
    files = {path.name: path.read_bytes() for path in sorted(Path(config.checkpoint_dir).iterdir())}
    return steps, files


@pytest.mark.parametrize("task", ["ae", "multitask"])
def test_training_is_bit_identical_with_the_oracle(fixtures_dir, tmp_path, monkeypatch, task):
    def config(outdir):
        return ExperimentConfig(task=task, domain="laptop", data_dir=str(fixtures_dir),
                                checkpoint_dir=str(tmp_path / outdir), embedding_dim=8, alsa_hidden=4,
                                ae_hidden=4, epochs=2, seed=5, dev_fraction=0.2, lr=0.01)

    steps, files = train_and_record(config("kernel"), monkeypatch)
    with monkeypatch.context() as patched:
        crf_oracle.swap_in(patched)
        want_steps, want_files = train_and_record(config("oracle"), monkeypatch)
    assert len(steps) == len(want_steps) > 0
    for i, (got, want) in enumerate(zip(steps, want_steps)):
        what = f"{'gradients' if i % 2 == 0 else 'parameters'} of step {i // 2}"
        assert got.keys() == want.keys()
        for name in want:
            assert_same_bits(got[name], want[name], f"{task}: {name} in the {what}")
    assert files.keys() == want_files.keys() and any(name.endswith(".log.jsonl") for name in files)
    for name in want_files:
        assert files[name] == want_files[name], f"{task}: {name} differs"
