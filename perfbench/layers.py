"""Per-layer numbers for the traced run, measured from outside the program.

Two kinds of measurement, both made only in the traced run:

* ``Spans`` wraps public layer functions (``ad.backward``, ``RMSProp.step``,
  ``Model.forward_example``, ``Generator.step``) during the traced rounds of
  the workload's pipeline, every second round after the warm-up, and times
  every call.
* ``probe_layers`` calls the encoder, decoder, copy head and objective on
  fixed examples, one layer at a time, and times each forward pass and each
  backward pass under a fixed cotangent.

Several of these symbols are internals that later changes may fold or
delete. A symbol that is missing, or a probe that no longer fits the code,
makes its metrics absent with a reason; it never fails the run.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from kbqgen import autodiff as ad
from kbqgen import trainer

clock = time.perf_counter


def in_unit(name, value):
    """Probes time in seconds; metrics named *_ms report milliseconds."""
    return value * 1000.0 if name.endswith("_ms") else value


class Spans:
    """Timing wrappers around layer entry points, removed by ``remove``."""

    def __init__(self):
        self.times = {}  # metric name -> seconds per call
        self.absent = {}  # metric name -> reason
        self.decode_calls = 0
        self._mode = "greedy"
        self._undo = []

    def _patch(self, owner, attr, make):
        fn = getattr(owner, attr, None)
        if fn is None:
            return False
        setattr(owner, attr, make(fn))
        self._undo.append((owner, attr, fn))
        return True

    def time_calls(self, owner, attr, name):
        """Time every call of owner.attr; `name` may be a function giving the metric name."""
        name_of = name if callable(name) else (lambda: name)

        def make(fn):
            def timed(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.times.setdefault(name_of(), []).append(clock() - t0)
            return timed

        if not self._patch(owner, attr, make):
            self.absent[name_of()] = f"{owner.__name__}.{attr} is gone"

    def decode_mode(self, owner, attr, mode):
        """Label the steps taken inside owner.attr as greedy or beam steps."""

        def make(fn):
            def labelled(*args, **kwargs):
                prev, self._mode = self._mode, mode
                self.decode_calls += mode == "greedy"
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._mode = prev
            return labelled

        self._patch(owner, attr, make)

    def install(self):
        from kbqgen import decoder as dec
        from kbqgen import model as mdl

        self.time_calls(ad, "backward", "autodiff.backward_ms")
        self.time_calls(trainer.RMSProp, "step", "trainer.optimizer_step_ms")
        self.time_calls(mdl.Model, "forward_example", "model.fwd_ms")
        step_name = lambda: f"decoder.{self._mode}_step_ms"
        generator = getattr(dec, "Generator", None)
        if generator is None:
            for mode in ("greedy", "beam"):
                self.absent[f"decoder.{mode}_step_ms"] = "decoder.Generator is gone"
        else:
            self.time_calls(generator, "step", step_name)
        self.decode_mode(dec, "greedy_decode", "greedy")
        self.decode_mode(dec, "beam_decode", "beam")

    def remove(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def medians(self):
        out = {name: in_unit(name, statistics.median(ts)) for name, ts in self.times.items()}
        steps = self.times.get("decoder.greedy_step_ms")
        if steps and self.decode_calls:
            out["decoder.decode_steps"] = len(steps) / self.decode_calls
        return out


def cotangent_loss(*tensors):
    """A scalar whose gradient with respect to each tensor is a fixed array."""
    rng = np.random.default_rng(0)
    total = None
    for t in tensors:
        term = ad.sum_all(ad.mul(t, ad.tensor(rng.standard_normal(t.data.shape))))
        total = term if total is None else ad.add(total, term)
    return total


def timed_backward(model, loss):
    t0 = clock()
    ad.backward(loss)
    dt = clock() - t0
    model.zero_grads()
    return dt


def tape_nodes(root):
    """Recorded nodes reachable from root: what one backward sweep visits."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def probe_encoder(model, config, ex):
    t0 = clock()
    fe = model.encode_fact(ex)
    fwd = clock() - t0
    bwd = timed_backward(model, cotangent_loss(fe.h_f, fe.context_rows))
    return {"encoder.fwd_ms": fwd, "encoder.bwd_ms": bwd}


def _decoder_inputs(model, ex):
    """The encoder's outputs as constants, so backward stops at the decoder."""
    with ad.no_grad():
        fe = model.encode_fact(ex)
    return type(fe)(h_f=ad.tensor(fe.h_f.data), context_rows=ad.tensor(fe.context_rows.data))


def probe_decoder_states(model, config, ex):
    from kbqgen import decoder as dec

    fe = _decoder_inputs(model, ex)
    t0 = clock()
    states = dec.decode_states(list(ex.question[:-1]), fe.h_f, model.decoder)
    fwd = clock() - t0
    bwd = timed_backward(model, cotangent_loss(states))
    return {"decoder.states_fwd_ms": fwd, "decoder.states_bwd_ms": bwd}


def probe_copy_head(model, config, ex):
    from kbqgen import decoder as dec

    fe = _decoder_inputs(model, ex)
    ids = list(ex.question[:-1])
    params = model.decoder
    with ad.no_grad():
        states = ad.tensor(dec.decode_states(ids, fe.h_f, params).data)
    src = dec.CopySource(ex.contexts, model.vocab)
    prev_emb = ad.gather(params.word_emb.value, ids)
    flags = {"use_kb_copy": model.use_kb_copy, "use_ctx_copy": model.use_ctx_copy}
    t0 = clock()
    dist, _modes = dec.step_distributions(states, prev_emb, fe, src, params, **flags)
    t1 = clock()
    dec.mode_switch(states, prev_emb, params, **flags)
    t2 = clock()
    dec.vocab_distribution(states, params)
    t3 = clock()
    dec.context_copy_distribution(states, fe.context_rows, src, params)
    t4 = clock()
    bwd = timed_backward(model, cotangent_loss(dist))
    return {
        "decoder.head_fwd_ms": t1 - t0,
        "decoder.head_bwd_ms": bwd,
        "decoder.mode_switch_ms": t2 - t1,
        "decoder.vocab_softmax_ms": t3 - t2,
        "decoder.ctx_copy_ms": t4 - t3,
    }


def probe_objective(model, config, ex):
    from kbqgen import objective as obj

    with ad.no_grad():
        res = model.forward_example(ex)
    dist = ad.Tensor(res.distributions.data, requires_grad=True)
    t0 = clock()
    ques = obj.question_loss(dist, res.gold_ext_ids)
    ans, _pair = obj.answer_loss(dist, res.answer_ext_ids)
    obj.total_loss(ques, ans, config.lam)
    return {"objective.fwd_ms": clock() - t0}


def probe_tape(model, config, ex):
    total, _breakdown = trainer.example_loss(model, ex, config)
    return {"autodiff.tape_nodes": tape_nodes(total)}


PROBES = (
    (probe_encoder, ("encoder.fwd_ms", "encoder.bwd_ms")),
    (probe_decoder_states, ("decoder.states_fwd_ms", "decoder.states_bwd_ms")),
    (probe_copy_head, ("decoder.head_fwd_ms", "decoder.head_bwd_ms", "decoder.mode_switch_ms",
                       "decoder.vocab_softmax_ms", "decoder.ctx_copy_ms")),
    (probe_objective, ("objective.fwd_ms",)),
    (probe_tape, ("autodiff.tape_nodes",)),
)


def probe_layers(model, config, examples, repeats):
    """Median per call of each probe over examples x repeats; (values, absent)."""
    samples, absent = {}, {}
    for probe, names in PROBES:
        try:
            for _ in range(repeats):
                for ex in examples:
                    for name, value in probe(model, config, ex).items():
                        samples.setdefault(name, []).append(value)
        except Exception as exc:  # a probe that no longer fits the code is reported absent
            model.zero_grads()
            for name in names:
                samples.pop(name, None)
                absent[name] = f"{probe.__name__}: {type(exc).__name__}: {exc}"
    return {name: in_unit(name, statistics.median(v)) for name, v in samples.items()}, absent


