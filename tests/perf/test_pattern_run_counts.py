"""Count guard for the CEP run store, on counts not time.

``SEQ(open, close)`` correlated on ``sym``, with live runs spread over
symbols at ``RUNS_PER_SYMBOL`` each, at 100 and at 5 000 live runs.  A
tick that closes nothing must evaluate the waiting step for its own
symbol's runs only, plus the first step once for the run it could
start: the number of ``PatternElement.matches`` calls per event is flat
in the number of live runs.
"""

from __future__ import annotations

from unittest import mock

from repro.cq import PatternElement, PatternMatcher, Seq, Stream
from repro.events import Event

RUNS_PER_SYMBOL = 5
PROBES = 40


def _calls_per_event(live_runs: int) -> float:
    symbols = live_runs // RUNS_PER_SYMBOL
    source = Stream("ticks")
    matcher = PatternMatcher(
        source,
        Seq(
            PatternElement("open", "tick", "kind = 'open'"),
            PatternElement("close", "tick", "sym = open_sym AND kind = 'close'"),
        ),
        output_type="closed",
    )
    for i in range(live_runs):
        source.push(Event("tick", float(i), {"kind": "open", "sym": i % symbols}))
    assert matcher.active_runs == live_runs

    calls = 0
    matches = PatternElement.matches

    def counted(element, event, bindings):
        nonlocal calls
        calls += 1
        return matches(element, event, bindings)

    with mock.patch.object(PatternElement, "matches", counted):
        for i in range(PROBES):
            payload = {"kind": "tick", "sym": i % symbols}
            source.push(Event("tick", float(live_runs + i), payload))
    assert matcher.active_runs == live_runs
    return calls / PROBES


def test_runs_visited_per_event_are_flat_in_live_runs():
    small, large = _calls_per_event(100), _calls_per_event(5000)
    assert small == large == RUNS_PER_SYMBOL + 1
