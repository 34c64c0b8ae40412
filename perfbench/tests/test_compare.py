"""``compare`` verdicts on synthetic ledgers."""

import json

import pytest

from bofl_bench.compare import compare, main, verdict

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def shifted(values, factor):
    return [v * factor for v in values]


def test_within_bound_when_the_change_is_inside_noise():
    assert verdict(BASE, shifted(BASE, 1.001), "higher", 0.1)[0] == "within bound"


def test_regressed_when_worse_by_more_than_the_bound():
    result, change = verdict(BASE, shifted(BASE, 0.8), "higher", 0.1)
    assert result == "regressed"
    assert change == pytest.approx(-0.2, rel=1e-6)
    # Direction matters: for a lower-is-better metric, lower is the gain.
    assert verdict(BASE, shifted(BASE, 0.8), "lower", 0.1)[0] == "improved"


def test_improved_needs_the_change_beyond_the_parents_spread_and_nine_in_ten_wins():
    new = shifted(BASE, 1.05)
    pairs = list(zip(BASE, new))
    assert verdict(BASE, new, "higher", 0.1, pairs)[0] == "improved"
    # The same medians, but the new side loses 2 of 10 seed pairs.
    losing = pairs[:8] + [(b, b * 0.99) for b, _ in pairs[8:]]
    assert verdict(BASE, new, "higher", 0.1, losing)[0] == "within bound"


def test_unresolved_when_the_spread_exceeds_the_bound():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert verdict(noisy, shifted(noisy, 1.02), "higher", 0.1)[0] == "unresolved"


def test_noisy_but_separated_runs_still_resolve():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0]
    better = [200.0, 260.0, 220.0, 240.0, 300.0]
    assert verdict(noisy, better, "higher", 0.1)[0] == "improved"
    assert verdict(better, noisy, "higher", 0.1)[0] == "regressed"


SPEC = {
    "ops_per_s": {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.1},
}


def record(seed, ops, digest="d", sim=1.0, trace=0, host_ms=10.0):
    if trace:
        metrics = {"hardware.self_s": {"value": ops, "unit": "s"},
                   "ilp.self_s": {"value": 1.0, "unit": "s"}}
    else:
        metrics = {"ops_per_s": {"value": ops, "unit": "ops/s"}}
    return {"workload": "w", "seed": seed, "trace": trace, "metrics": metrics, "digest": digest,
            "host": {"host_ms_per_op": {"value": host_ms, "unit": "ms", "better": "lower"}},
            "workload_metrics": {"sim_x": {"value": sim, "unit": "%", "better": "higher"}}}


def test_compare_flags_regressions_digests_and_sim_changes():
    base = [record(s, 100.0 + s % 3) for s in range(10)]
    new = [record(s, 70.0 + s % 3, digest="e" if s == 4 else "d", sim=2.0 if s == 1 else 1.0)
           for s in range(10)]
    lines, regressed = compare(base, new, SPEC)
    text = "\n".join(lines)
    assert regressed
    assert "regressed" in text
    assert "CHANGED on seed(s) [4]" in text
    assert "sim_x" in text and "changed on seed(s) [1]" in text


def test_compare_flags_failures_that_rise_on_any_seed():
    def with_failures(seed, share):
        r = record(seed, 100.0)
        r["workload_metrics"]["failed_share"] = {"value": share, "unit": "fraction",
                                                 "better": "lower"}
        return r

    base = [with_failures(s, 1e-4) for s in range(10)]
    lines, regressed = compare(base, [with_failures(s, 1e-4) for s in range(10)], SPEC)
    assert not regressed
    # One more failure in 30,000 on one seed is far inside any usable bound.
    new = [with_failures(s, 1e-4 + (1 / 30_000 if s == 7 else 0.0)) for s in range(10)]
    lines, regressed = compare(base, new, SPEC)
    assert regressed
    assert any("ROSE on seed(s) [7]" in line for line in lines)


def test_compare_pairs_host_cost_by_seed_without_a_verdict():
    # The seed sets the host cost; the change is paired seed by seed.
    per_seed = [5.0, 20.0, 8.0, 14.0, 10.0, 6.0, 18.0, 9.0, 12.0, 16.0]
    base = [record(s, 100.0, host_ms=per_seed[s]) for s in range(10)]
    new = [record(s, 100.0, host_ms=per_seed[s] * (1.3 if s < 8 else 0.9)) for s in range(10)]
    lines, regressed = compare(base, new, SPEC)
    line = next(line for line in lines if line.strip().startswith("host_ms_per_op"))
    assert "-30.00%" in line and "not bounded: worse on 8 of 10 seed(s)" in line
    assert not regressed


def test_compare_ranks_traced_layers_by_self_time_moved():
    base = [record(s, 5.0, trace=1) for s in range(3)]
    new = [record(s, 3.0, trace=1) for s in range(3)]
    lines, regressed = compare(base, new, SPEC)
    assert not regressed
    layer_lines = [line.split()[0] for line in lines[1:] if line.strip()]
    assert layer_lines[:2] == ["hardware", "ilp"]


def test_main_reads_ledgers_and_exits_nonzero_on_regression(tmp_path, capsys):
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": list(SPEC.values())}))
    base, new = tmp_path / "base.jsonl", tmp_path / "new.jsonl"
    base.write_text("".join(json.dumps(record(s, 100.0)) + "\n" for s in range(5)))
    new.write_text("".join(json.dumps(record(s, 100.0)) + "\n" for s in range(5)))
    assert main([str(base), str(new)], bench) == 0
    new.write_text("".join(json.dumps(record(s, 50.0)) + "\n" for s in range(5)))
    assert main([str(base), str(new)], bench) == 1
    assert "regressed" in capsys.readouterr().out
