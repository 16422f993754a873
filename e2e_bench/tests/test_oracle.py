"""The answer oracle catches wrong, stale and swapped answers."""

from e2e_bench import apps_bench, serving_bench, workloads
from e2e_bench.oracle import Oracle, answer_of


def _cold_run(seed):
    run = apps_bench.AppsRun("cold_mix", seed)
    window = run.window(1.5)
    matched, mismatches, correct = run.judge([window])
    return matched / window.turns, mismatches, correct


def test_wrong_sql_lowers_answer_match(monkeypatch):
    from repro.smmf.client import LLMClient

    share, _mismatches, correct = _cold_run(seed=9)
    assert correct

    generate = LLMClient.generate

    def wrong_sql(self, model, prompt, task=None, **kwargs):
        text = generate(self, model, prompt, task=task, **kwargs)
        if task != "text2sql":
            return text
        return text.replace(">", "<").replace("SUM(", "MAX(")

    monkeypatch.setattr(LLMClient, "generate", wrong_sql)
    stub_share, mismatches, correct = _cold_run(seed=9)
    assert stub_share < share - 0.2
    assert not correct
    assert any(
        template not in workloads.KNOWN_DEFECT
        for _app, template in mismatches
    )


def test_oracle_replays_writes_so_stale_rows_fail():
    oracle = Oracle(seed=2)
    turn = workloads.Turn(
        "chat2data", "How many orders are there?", "count",
        gold="SELECT COUNT(*) FROM orders",
    )
    before = oracle.rows(turn.gold)
    assert oracle.matches(turn, before)
    oracle.apply(next(workloads.write_stream(2)))
    assert oracle.rows(turn.gold) != before
    assert not oracle.matches(turn, before)


def test_text2sql_is_judged_by_its_result_not_its_spelling():
    oracle = Oracle(seed=2)
    turn = workloads.Turn(
        "text2sql", "How many orders have amount greater than 100?",
        "count_gt", gold="SELECT COUNT(*) FROM orders WHERE amount > 100",
    )
    assert oracle.matches(
        turn, "SELECT COUNT(*) FROM orders WHERE 100 < amount"
    )
    assert not oracle.matches(
        turn, "SELECT COUNT(*) FROM orders WHERE amount > 101.5"
    )
    assert not oracle.matches(turn, "SELECT nope FROM nowhere")


def test_failed_turns_never_match():
    oracle = Oracle(seed=2)

    class Failed:
        ok = False

    turn = workloads.Turn("knowledge_qa", "q", "qa_0",
                          relevant=frozenset({"databases-1"}))
    assert answer_of(turn, Failed()) is None
    assert not oracle.matches(turn, None)
    assert oracle.matches(turn, ("networking-3", "databases-1"))
    assert not oracle.matches(turn, ("networking-3",))


def test_swapped_serving_replies_are_mismatches():
    first = workloads.serving_prompt(1, 0)
    second = workloads.serving_prompt(1, 1)
    phase = serving_bench.Phase()
    phase.requests[first] = (0.0, 0.0, 0.1,
                             serving_bench.expected_reply(second))
    phase.requests[second] = (0.0, 0.0, 0.1,
                              serving_bench.expected_reply(first))
    assert serving_bench._judge([phase]) == (2, 0, 0)
    phase.requests[second] = (0.0, 0.0, 0.1,
                              serving_bench.expected_reply(second))
    assert serving_bench._judge([phase]) == (2, 0, 1)
