"""Reference generate and serialisation: every step by one builtin divmod,
and every term turned into text by its own call.

divmod_generate is the loop that `tauseq.recurrence.generate` replaced: it
builds the signed products SIGNS[i] * T(p_i) * T(q_i), the signed divisor
and -acc, and divides with the builtin divmod at every size.  `generate`
now folds the signs into one add or subtract and divides big ints
recursively (`recurrence._divmod`); the tests compare the two term for
term.

per_term_json_dict is the `SequenceRun.to_json_dict` that
`SequenceRun.term_texts` replaced: one `term_str` call per term, and the
seed window's text made apart from the terms'.
"""

from fractions import Fraction

from tauseq.recurrence import SIGNS, BilinearRecurrence, SequenceRun, term_str


def divmod_generate(rec: BilinearRecurrence, count: int,
                    init=None) -> SequenceRun:
    """The former generate, with builtin divmod at every step."""
    window = rec.window
    if init is None:
        init = [1] * window
    low = min(x for pair in rec.pairs for x in pair)
    pairs = [(p - low, q - low) for p, q in rec.pairs]
    top = max(x for pair in pairs for x in pair)
    owner = next(i for i, (p, q) in enumerate(pairs) if top in (p, q))
    p_o, q_o = pairs[owner]
    partner = q_o if p_o == top else p_o

    terms = list(init)
    run = SequenceRun(terms=terms, window=window)
    for j in range(window, count):
        l = j - top
        acc = 0
        for i, (p, q) in enumerate(pairs):
            if i != owner:
                acc += SIGNS[i] * terms[l + p] * terms[l + q]
        divisor = SIGNS[owner] * terms[l + partner]
        if divisor == 0:
            run.status = "degenerate"
            run.status_index = j
            break
        value, rem = divmod(-acc, divisor)
        if rem:
            value = Fraction(-acc, divisor)
            if run.status == "ok":
                run.status = "non-integral"
                run.status_index = j
        terms.append(value)
    return run


def per_term_json_dict(run: SequenceRun) -> dict:
    """The former SequenceRun.to_json_dict, a str per term and position."""
    return {
        "terms": [term_str(t) for t in run.terms],
        "status": run.status,
        "status_index": run.status_index,
        "seed_window": [term_str(t) for t in run.terms[:run.window]],
    }
