"""The seeded input generators."""

import itertools
from collections import Counter

import pytest

from e2e_bench import workloads


@pytest.fixture(scope="module")
def corpus():
    return workloads.build_corpus_for(7)[1]


def _take(iterator, count):
    return list(itertools.islice(iterator, count))


def test_same_seed_gives_the_same_inputs(corpus):
    _spec, again = workloads.build_corpus_for(7)
    assert _take(workloads.cold_stream(7, corpus), 500) == _take(
        workloads.cold_stream(7, again), 500
    )
    assert workloads.warm_pool(7, corpus) == workloads.warm_pool(7, again)
    assert _take(workloads.write_mix_stream(7, corpus), 300) == _take(
        workloads.write_mix_stream(7, again), 300
    )
    assert _take(workloads.zipf_stream(workloads.warm_pool(7, corpus)),
                 300) == _take(
        workloads.zipf_stream(workloads.warm_pool(7, again)), 300
    )
    assert _take(workloads.arrivals(7, 400.0), 1000) == _take(
        workloads.arrivals(7, 400.0), 1000
    )


def test_other_seeds_give_other_inputs(corpus):
    other = workloads.build_corpus_for(8)[1]
    assert _take(workloads.cold_stream(7, corpus), 100) != _take(
        workloads.cold_stream(8, other), 100
    )
    assert workloads.warm_pool(7, corpus) != workloads.warm_pool(8, other)
    assert _take(workloads.arrivals(7, 50.0), 10) != _take(
        workloads.arrivals(8, 50.0), 10
    )


def test_cold_stream_never_repeats_and_keeps_the_mix(corpus):
    turns = _take(workloads.cold_stream(3, corpus), 5000)
    assert len({(t.app, t.text) for t in turns}) == len(turns)
    for block in range(0, len(turns), 100):
        assert Counter(t.app for t in turns[block:block + 100]) == Counter(
            workloads.COLD_MIX
        )


def test_template_shares_do_not_depend_on_the_seed(corpus):
    other = workloads.build_corpus_for(8)[1]

    def shares(stream):
        return Counter((t.app, t.template) for t in _take(stream, 1000))

    assert shares(workloads.cold_stream(1, corpus)) == shares(
        workloads.cold_stream(2, other)
    )
    assert [(t.app, t.template) for t in workloads.warm_pool(1, corpus)] == [
        (t.app, t.template) for t in workloads.warm_pool(2, other)
    ]


def test_known_defect_templates_stay_in_the_mix(corpus):
    cold = _take(workloads.cold_stream(1, corpus), 100)
    assert any(t.template in workloads.KNOWN_DEFECT for t in cold)
    assert any(
        t.template in workloads.KNOWN_DEFECT
        for t in workloads.warm_pool(1, corpus)
    )


def test_pools(corpus):
    warm = workloads.warm_pool(4, corpus)
    assert len(warm) == workloads.WARM_POOL
    assert len({(t.app, t.text) for t in warm}) == len(warm)
    assert warm[-1].app == "data_analysis"
    write = workloads.write_pool(4, corpus)
    assert {t.app for t in write} <= set(workloads.SQL_APPS)


def test_write_mix_writes_after_every_tenth_turn(corpus):
    items = _take(workloads.write_mix_stream(2, corpus), 110)
    writes = [i for i, item in enumerate(items)
              if isinstance(item, workloads.Write)]
    assert writes == list(range(10, 110, 11))
    ids = [items[i].sql.split("(")[1].split(",")[0] for i in writes]
    assert ids == [str(workloads.N_ORDERS + n) for n in range(1, 11)]


def test_serving_prompts_are_distinct_and_echoable():
    prompts = [workloads.serving_prompt(3, i) for i in range(5000)]
    heads = [p.splitlines()[0] for p in prompts]
    assert len(set(heads)) == len(heads)
    assert max(len(h) for h in heads) <= 120


def test_arrivals_follow_the_rate():
    offsets = list(itertools.takewhile(
        lambda t: t < 100.0, workloads.arrivals(5, 50.0)
    ))
    assert 4700 < len(offsets) < 5300
    assert offsets == sorted(offsets)
