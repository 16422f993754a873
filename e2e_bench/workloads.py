"""Seeded input generators for every workload.

Everything here is a pure function of the seed: the same seed yields
the same database, corpus, question stream, write stream and arrival
schedule. The program under test only ever receives the generated
inputs; the gold answers stay on the benchmark's side.

Question streams are built from *slots*. A slot fixes a turn's app,
question shape (template, measure, aggregate, group dimension) and the
rough size of its numeric threshold; the seed fills in the rest (the
exact threshold, knowledge term, plan dimensions). The slot
layouts themselves do not depend on the seed, so every seed sends the
same share of each template and about the same amount of SQL work, and
run-to-run differences come from the program, not from the draw.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Iterator, Optional

#: Sales database size. Large enough that SQL execution is the biggest
#: self-time layer on cold questions.
N_ORDERS = 3000
N_USERS = 40
N_PRODUCTS = 25
#: Documents per topic in the knowledge corpus (four topics).
DOCS_PER_TOPIC = 24

#: Cold mix: app -> turns per block of 100. Every block holds exactly
#: these turns, in a seeded order.
COLD_MIX = {
    "chat2data": 30,
    "chat2viz": 20,
    "text2sql": 20,
    "chat2db": 10,
    "knowledge_qa": 17,
    "data_analysis": 3,
}
SQL_APPS = ("chat2data", "chat2viz", "text2sql", "chat2db")
APPS = tuple(COLD_MIX)

#: Warm pool size and Zipf exponent over the pool's ranks.
WARM_POOL = 40
ZIPF_S = 0.8
ZIPF_BLOCK = 100
#: write_mix sends one INSERT after every WRITE_EVERY turns.
WRITE_EVERY = 10

#: Open-loop serving: replicas, simulated model costs and the arrival
#: rate, twice what the replicas serve without batching.
SERVING_REPLICAS = 4
SERVING_LATENCY_S = 0.020
SERVING_PER_ITEM_S = 0.0005
SERVING_RATE = 400.0
#: A turn or request meets the latency limit when it completes OK
#: within this many milliseconds of its due time.
SLO_MS = 200.0

#: Templates the seed's simulated sql-coder answers wrongly: a question
#: that aggregates ``quantity`` but filters on ``amount`` gets its
#: filter put on ``quantity`` (and "per month" grouped by ``amount``).
#: They stay in the mix so ``answer_match`` shows the defect; a
#: mismatch on any other template makes a run incorrect.
KNOWN_DEFECT = frozenset(
    f"{shape}:quantity"
    for shape in (
        "grouped_gt", "grouped_lt", "grouped_between", "month_gt",
        "scalar_lt",
    )
)

#: Retrieval is ranking, judged by its hit rate. A run stays correct
#: while at least this share of its distinct knowledge_qa questions
#: cite a gold-labelled document: the floor catches broken retrieval,
#: and ``answer_match`` reports the actual rate. The seed misses about
#: 1 question in 150, most of them "What should I know about the
#: <term>, question <n>?" pulling documents from another topic.
QA_MIN_HIT = 0.8

_CHART_SHAPES = (
    "grouped_gt", "grouped_lt", "grouped_between", "count_grouped",
    "month_gt",
)
_SHAPES = _CHART_SHAPES + ("count_gt", "scalar_lt")
_AGGREGATES = {
    "total": "SUM",
    "average": "AVG",
    "maximum": "MAX",
    "minimum": "MIN",
}
_USERS_JOIN = "JOIN users ON orders.user_id = users.user_id"
_PRODUCTS_JOIN = "JOIN products ON orders.product_id = products.product_id"
#: Group dimension -> (qualified column, join clause).
_DIMENSIONS = {
    "region": ("users.region", _USERS_JOIN),
    "segment": ("users.segment", _USERS_JOIN),
    "category": ("products.category", _PRODUCTS_JOIN),
}
_MONTH = "STRFTIME('%Y-%m', order_date)"
#: Planner dimension -> the words a goal uses for it.
_PLAN_DIMENSIONS = {
    "category": "product category",
    "user": "customer",
    "month": "month",
    "region": "region",
    "segment": "segment",
}
_QA_PHRASINGS = (
    "How does the {term} work in case {n}?",
    "Explain the {term} for ticket {n}.",
    "Why does the {term} matter in review {n}?",
    "Tell me about the {term} in {entity}, note {n}.",
    "What should I know about the {term}, question {n}?",
)
#: How far the seed moves a slot's threshold either way.
_JITTER = 60
#: The corpus's only sentence shape (see repro.datasets.documents).
_SENTENCE = re.compile(r"The (.+?) in (\w+) matters because")


@dataclass(frozen=True)
class Turn:
    """One chat turn: the app, the text it receives and its gold.

    ``template`` names the question shape, so a mismatch can be traced
    back to it. ``gold`` is the gold SQL of a sales question;
    ``relevant`` the gold-labelled documents of a knowledge question.
    """

    app: str
    text: str
    template: str
    gold: Optional[str] = None
    relevant: frozenset = field(default_factory=frozenset)


@dataclass(frozen=True)
class Write:
    """One INSERT sent through ``Database.execute`` between turns."""

    sql: str


@dataclass(frozen=True)
class _Slot:
    app: str
    shape: str = ""
    measure: str = ""
    word: str = ""
    dim: str = ""
    #: Threshold and range width before the seed's jitter.
    low: int = 0
    width: int = 0
    phrasing: int = 0


class Corpus:
    """Gold labels for term questions over one ``build_corpus`` corpus."""

    def __init__(self, spec) -> None:
        term_docs: dict[str, set] = {}
        entities: dict[str, set] = {}
        for doc_id, text in spec.documents.items():
            for term, entity in _SENTENCE.findall(text):
                term_docs.setdefault(term, set()).add(doc_id)
                entities.setdefault(term, set()).add(entity)
        self.term_docs = {t: frozenset(d) for t, d in term_docs.items()}
        self.entities = {t: sorted(e) for t, e in entities.items()}
        self.terms = sorted(term_docs)


def build_corpus_for(seed: int):
    """The knowledge corpus for ``seed``: ``(CorpusSpec, Corpus)``."""
    from repro.datasets import build_corpus

    spec = build_corpus(seed=seed, docs_per_topic=DOCS_PER_TOPIC)
    return spec, Corpus(spec)


# -- slot layouts (seed-independent) -----------------------------------------


def _slot(rng: random.Random, app: str) -> _Slot:
    if app == "knowledge_qa":
        return _Slot(app, phrasing=rng.randrange(len(_QA_PHRASINGS)))
    if app == "data_analysis":
        return _Slot(app)
    # chat2viz gets grouped ``amount`` questions only: every turn must
    # be chartable, and a ``quantity`` question hit by KNOWN_DEFECT can
    # come back empty, which chat2viz reports as a failed turn rather
    # than a wrong answer.
    chart = app == "chat2viz"
    measure = "amount" if chart else rng.choice(("amount", "quantity"))
    # MAX/MIN of quantity (1 to 5) under KNOWN_DEFECT's wrong filter
    # equal the right answer on some seeds and not on others, which
    # would make answer_match a draw; quantity gets totals and averages.
    words = sorted(_AGGREGATES) if measure == "amount" else [
        "average", "total",
    ]
    # Thresholds stay where every group keeps rows, so no answer is
    # empty (an empty chart is a failed chat2viz turn).
    return _Slot(
        app,
        shape=rng.choice(_CHART_SHAPES if chart else _SHAPES),
        measure=measure,
        word=rng.choice(words),
        dim=rng.choice(sorted(_DIMENSIONS)),
        low=rng.randint(_JITTER + 20, 1500 - _JITTER),
        width=rng.randint(100, 600),
    )


def _cold_layout() -> list[_Slot]:
    rng = random.Random("layout:cold")
    return [
        _slot(rng, app) for app, count in COLD_MIX.items()
        for _ in range(count)
    ]


def _pool_layout(apps: tuple[str, ...], with_plan: bool) -> list[_Slot]:
    """Pool slots in Zipf rank order; a plan takes the last rank.

    Ranks go to apps greedily, each to the app furthest below its
    ``COLD_MIX`` share of the Zipf-weighted traffic, so the pool sends
    the cold mix's app shares.
    """
    rng = random.Random(f"layout:pool:{','.join(apps)}")
    size = WARM_POOL - (1 if with_plan else 0)
    weights = [1.0 / rank ** ZIPF_S for rank in range(1, size + 1)]
    target = {app: COLD_MIX[app] for app in apps}
    scale = sum(target.values()) / sum(weights)
    given = dict.fromkeys(apps, 0.0)
    slots = []
    for weight in weights:
        app = max(apps, key=lambda a: target[a] - given[a] * scale)
        given[app] += weight
        slots.append(_slot(rng, app))
    if with_plan:
        slots.append(_Slot("data_analysis"))
    return slots


# -- filling a slot (seeded) -------------------------------------------------


def _sales_turn(slot: _Slot, rng: random.Random) -> Turn:
    shape, measure, word, dim = slot.shape, slot.measure, slot.word, slot.dim
    fn = _AGGREGATES[word]
    column, join = _DIMENSIONS[dim]
    low = slot.low + rng.randint(-_JITTER, _JITTER)
    template = shape if shape.startswith("count") else f"{shape}:{measure}"
    per = f"What is the {word} {measure} per {dim} for orders with amount"
    grouped = f"SELECT {column}, {fn}(orders.{measure}) FROM orders {join}"
    if shape == "grouped_gt":
        text = f"{per} greater than {low}?"
        gold = f"{grouped} WHERE orders.amount > {low} GROUP BY {column}"
    elif shape == "grouped_lt":
        low += 300
        text = f"{per} less than {low}?"
        gold = f"{grouped} WHERE orders.amount < {low} GROUP BY {column}"
    elif shape == "grouped_between":
        high = low + slot.width + rng.randint(0, _JITTER)
        text = f"{per} between {low} and {high}?"
        gold = (
            f"{grouped} WHERE orders.amount BETWEEN {low} AND {high} "
            f"GROUP BY {column}"
        )
    elif shape == "count_grouped":
        text = f"How many orders per {dim} have amount greater than {low}?"
        gold = (
            f"SELECT {column}, COUNT(*) FROM orders {join} "
            f"WHERE orders.amount > {low} GROUP BY {column}"
        )
    elif shape == "month_gt":
        text = (
            f"What is the {word} {measure} per month for orders with "
            f"amount greater than {low}?"
        )
        gold = (
            f"SELECT {_MONTH}, {fn}({measure}) FROM orders "
            f"WHERE amount > {low} GROUP BY {_MONTH}"
        )
    elif shape == "count_gt":
        text = f"How many orders have amount greater than {low}?"
        gold = f"SELECT COUNT(*) FROM orders WHERE amount > {low}"
    else:
        text = (
            f"What is the {word} {measure} of orders with amount less "
            f"than {low}?"
        )
        gold = f"SELECT {fn}({measure}) FROM orders WHERE amount < {low}"
    return Turn(slot.app, text, template, gold=gold)


def _fill(slot: _Slot, rng: random.Random, corpus: Corpus, n: int) -> Turn:
    if slot.app == "knowledge_qa":
        term = rng.choice(corpus.terms)
        entity = rng.choice(corpus.entities[term])
        text = _QA_PHRASINGS[slot.phrasing].format(
            term=term, entity=entity, n=n
        )
        return Turn(
            slot.app, text, f"qa_{slot.phrasing}",
            relevant=corpus.term_docs[term],
        )
    if slot.app == "data_analysis":
        words = [
            _PLAN_DIMENSIONS[d]
            for d in rng.sample(sorted(_PLAN_DIMENSIONS), 3)
        ]
        text = (
            f"Build sales reports analyzing orders by {words[0]}, "
            f"{words[1]} and {words[2]} for review {n}"
        )
        return Turn(slot.app, text, "plan")
    return _sales_turn(slot, rng)


# -- streams -----------------------------------------------------------------


def cold_stream(seed: int, corpus: Corpus) -> Iterator[Turn]:
    """Endless cold questions: never the same (app, text) twice.

    Turns come in blocks of 100 holding exactly ``COLD_MIX`` turns
    each, shuffled per block.
    """
    rng = random.Random(f"cold:{seed}")
    block = _cold_layout()
    seen: set[tuple[str, str]] = set()
    serial = 0
    while True:
        rng.shuffle(block)
        for slot in block:
            while True:
                serial += 1
                turn = _fill(slot, rng, corpus, serial)
                if (turn.app, turn.text) not in seen:
                    break
            seen.add((turn.app, turn.text))
            yield turn


def pool(
    seed: int, corpus: Corpus, apps: tuple[str, ...], with_plan: bool
) -> list[Turn]:
    """``WARM_POOL`` distinct turns over ``apps``, in Zipf rank order."""
    rng = random.Random(f"pool:{seed}:{','.join(apps)}")
    turns: list[Turn] = []
    seen: set[tuple[str, str]] = set()
    serial = 0
    for slot in _pool_layout(apps, with_plan):
        while True:
            serial += 1
            turn = _fill(slot, rng, corpus, serial)
            if (turn.app, turn.text) not in seen:
                break
        seen.add((turn.app, turn.text))
        turns.append(turn)
    return turns


def zipf_stream(ranked: list[Turn]) -> Iterator[Turn]:
    """Pool entries drawn Zipf(``ZIPF_S``) over their ranks.

    Draws come in blocks of ``ZIPF_BLOCK`` that hold each rank its
    expected number of times (largest remainders rounded up), shuffled
    per block. The shuffles do not depend on the seed, so every seed
    repeats its pool entries in the same pattern: in ``write_mix`` the
    number of distinct questions between two writes, which sets how
    many turns miss the caches, is the same for every seed.
    """
    rng = random.Random("zipf")
    weights = [1.0 / rank ** ZIPF_S for rank in range(1, len(ranked) + 1)]
    total = sum(weights)
    quotas = [ZIPF_BLOCK * w / total for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(
        range(len(ranked)), key=lambda i: counts[i] - quotas[i]
    )
    for index in by_remainder[: ZIPF_BLOCK - sum(counts)]:
        counts[index] += 1
    block = [turn for turn, count in zip(ranked, counts)
             for _ in range(count)]
    while True:
        rng.shuffle(block)
        yield from block


def write_stream(seed: int) -> Iterator[Write]:
    """INSERTs of new orders by existing users and products."""
    rng = random.Random(f"write:{seed}")
    order_id = N_ORDERS
    while True:
        order_id += 1
        quantity = rng.randint(1, 5)
        amount = round(rng.uniform(5.0, 500.0) * quantity, 2)
        yield Write(
            "INSERT INTO orders VALUES ("
            f"{order_id}, {rng.randint(1, N_USERS)}, "
            f"{rng.randint(1, N_PRODUCTS)}, {quantity}, {amount}, "
            f"'2023-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}')"
        )


def warm_pool(seed: int, corpus: Corpus) -> list[Turn]:
    """The warm_repeat pool: every app, one plan at the last rank."""
    return pool(seed, corpus, APPS[:-1], with_plan=True)


def write_pool(seed: int, corpus: Corpus) -> list[Turn]:
    """The write_mix pool: the SQL apps only."""
    return pool(seed, corpus, SQL_APPS, with_plan=False)


def write_mix_stream(seed: int, corpus: Corpus) -> Iterator:
    """The SQL-app pool with one write after every ``WRITE_EVERY``
    turns."""
    turns = zipf_stream(write_pool(seed, corpus))
    writes = write_stream(seed)
    while True:
        for _ in range(WRITE_EVERY):
            yield next(turns)
        yield next(writes)


def arrivals(seed: int, rate: float) -> Iterator[float]:
    """Poisson arrival offsets in seconds from the phase start."""
    rng = random.Random(f"arrivals:{seed}:{rate}")
    offset = 0.0
    while True:
        offset += rng.expovariate(rate)
        yield offset


def serving_prompt(seed: int, index: int) -> str:
    """A distinct prompt per request. The simulated model echoes the
    first line (up to 120 characters), so replies identify requests."""
    return (
        f"request {index} of run {seed}: summarize the order backlog\n"
        "Answer in one sentence."
    )
