"""Tests for experiment configuration, signal generation, and table output."""

import io
import json
import random

import numpy as np
import pytest

from ergofilt import chains, filters, harness
from ergofilt.cli import cli_main


def _column(table, name):
    return table[:, harness.FILTER_ORDER.index(name)]


def _cycle_config(**kw):
    base = dict(experiment="cycle-walk", p=11, k_max=20, use_reference_signal=True)
    base.update(kw)
    return harness.ExperimentConfig(**base)


def test_cycle_reference_metadata():
    results, metadata = harness.run_experiment(_cycle_config())
    assert metadata.lambda_low == pytest.approx(88.0 / 1200.0, abs=1e-12)
    assert metadata.pi_f == pytest.approx(3.65, abs=1e-12)
    assert results.shape == (20, len(harness.FILTER_ORDER))


def test_glauber_reference_metadata():
    config = harness.ExperimentConfig(
        experiment="glauber", p=4, beta=0.2, coupling=1.0, use_reference_signal=True
    )
    _, metadata = harness.run_experiment(config)
    assert metadata.lambda_low == pytest.approx((1.0 - np.tanh(0.4)) / 4.0, abs=1e-10)
    assert metadata.p == 4
    assert metadata.experiment == "glauber"


def test_glauber_defaults_fill_in():
    explicit = harness.ExperimentConfig(
        experiment="glauber", p=4, beta=0.2, coupling=1.0, k_max=5, use_reference_signal=True
    )
    defaulted = harness.ExperimentConfig(
        experiment="glauber", p=4, k_max=5, use_reference_signal=True
    )
    left, _ = harness.run_experiment(explicit)
    right, _ = harness.run_experiment(defaulted)
    assert harness.emit_csv(left) == harness.emit_csv(right)


def test_constant_signal_zero_errors():
    config = harness.ExperimentConfig(
        experiment="cycle-walk", p=5, k_max=6, signal=[2.5] * 5
    )
    results, metadata = harness.run_experiment(config)
    assert metadata.pi_f == pytest.approx(2.5)
    assert np.all(results <= 1e-12)


def test_errors_nonnegative_finite():
    results, _ = harness.run_experiment(_cycle_config(k_max=8))
    assert np.all(np.isfinite(results) & (results >= 0.0))


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        harness.run_experiment(_cycle_config(k_max=0))
    with pytest.raises(ValueError):
        harness.run_experiment(_cycle_config(experiment="mystery"))
    with pytest.raises(ValueError):
        harness.run_experiment(_cycle_config(lambda_low_override=2.5))


def test_signal_source_required_and_length_checked():
    with pytest.raises(ValueError):
        harness.run_experiment(
            harness.ExperimentConfig(experiment="cycle-walk", p=11, k_max=3)
        )
    with pytest.raises(ValueError):
        harness.run_experiment(
            harness.ExperimentConfig(experiment="cycle-walk", p=11, k_max=3, signal=[1.0] * 5)
        )
    with pytest.raises(ValueError):
        harness.run_experiment(
            harness.ExperimentConfig(
                experiment="cycle-walk", p=5, k_max=3, use_reference_signal=True
            )
        )


def test_signal_precedence():
    values = list(range(1, 12))
    explicit_only, _ = harness.run_experiment(
        harness.ExperimentConfig(experiment="cycle-walk", p=11, k_max=4, signal=values)
    )
    explicit_and_seed, _ = harness.run_experiment(
        harness.ExperimentConfig(experiment="cycle-walk", p=11, k_max=4, signal=values, seed=9)
    )
    assert harness.emit_csv(explicit_only) == harness.emit_csv(explicit_and_seed)

    reference_only, _ = harness.run_experiment(_cycle_config(k_max=4))
    reference_and_seed, _ = harness.run_experiment(_cycle_config(k_max=4, seed=9))
    assert harness.emit_csv(reference_only) == harness.emit_csv(reference_and_seed)


def test_lambda_low_override():
    plain_results, plain_meta = harness.run_experiment(_cycle_config(k_max=6))
    tuned_results, tuned_meta = harness.run_experiment(
        _cycle_config(k_max=6, lambda_low_override=0.5)
    )
    assert plain_meta.lambda_low == pytest.approx(88.0 / 1200.0, abs=1e-12)
    assert tuned_meta.lambda_low == 0.5
    assert np.array_equal(_column(plain_results, "ergodic"), _column(tuned_results, "ergodic"))
    assert np.any(_column(plain_results, "chebyshev") != _column(tuned_results, "chebyshev"))


def test_generate_signal_pinned_values():
    assert harness.generate_signal(42, 6) == pytest.approx(
        [7.42, 1.6, 2.79, 3.44, 0.38, 8.68], abs=1e-12
    )
    assert harness.generate_signal(0, 3) == pytest.approx([8.83, 4.32, 0.26], abs=1e-12)
    assert harness.generate_signal(2**64 - 1, 2) == pytest.approx([8.94, 9.13], abs=1e-12)


def test_generate_signal_shape_and_rounding():
    draws = harness.generate_signal(123, 500)
    assert draws.shape == (500,)
    assert np.all((draws >= 0.0) & (draws <= 10.0))
    cents = draws * 100.0
    assert np.abs(cents - np.round(cents)).max() <= 1e-9
    again = harness.generate_signal(123, 500)
    assert np.array_equal(draws, again)


_MASK64 = (1 << 64) - 1


def _reference_signal(seed, count):
    """The generator's contract as a scalar splitmix64 loop on Python ints."""
    state = seed & _MASK64
    values = np.empty(count)
    for i in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        word = z ^ (z >> 31)
        values[i] = round((word >> 11) * 2.0**-53 * 10.0, 2)
    return values


@pytest.mark.filterwarnings("error")
def test_generate_signal_bytes_match_scalar_loop():
    rng = random.Random(2024)
    seeds = [0, 1, 2**63, 2**64 - 1] + [rng.getrandbits(64) for _ in range(200)]
    for seed in seeds:
        for count in (1, 11, 1024):
            got = harness.generate_signal(seed, count)
            want = _reference_signal(seed, count)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (seed, count)


def test_round_cents_matches_round_near_half_cents():
    # half-cents (2k + 1)/200 and their 1- and 2-ulp neighbours, where x * 100.0
    # may round across the tie and np.rint alone would pick the wrong cent,
    # plus uniform draws from the generator's range [0, 10)
    ties = (2 * np.arange(2000) + 1) / 200.0
    near = [ties]
    for direction in (np.inf, -np.inf):
        step = ties
        for _ in range(2):
            step = np.nextafter(step, direction)
            near.append(step)
    x = np.concatenate(near + [np.random.default_rng(7).uniform(0.0, 10.0, 10**5)])
    want = np.array([round(v, 2) for v in x.tolist()])
    assert harness._round_cents(x).tobytes() == want.tobytes()


def test_emit_csv_shape():
    results, _ = harness.run_experiment(_cycle_config())
    text = harness.emit_csv(results)
    lines = text.splitlines()
    assert len(lines) == 21
    assert lines[0] == "degree,ergodic,bernstein,chebyshev,legendre"
    assert text.endswith("\n")
    assert "\r" not in text
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(_column(results, "ergodic")[0], rel=1e-11)
    assert float(first[4]) == pytest.approx(_column(results, "legendre")[0], rel=1e-11)


def test_emit_csv_destination():
    results, _ = harness.run_experiment(_cycle_config(k_max=3))
    buffer = io.StringIO()
    text = harness.emit_csv(results, buffer)
    assert buffer.getvalue() == text


def test_emit_csv_rejects_empty():
    with pytest.raises(ValueError):
        harness.emit_csv([])


@pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 5)])
def test_emit_rejects_table_without_one_column_per_filter(shape):
    _, metadata = harness.run_experiment(_cycle_config(k_max=2))
    with pytest.raises(ValueError, match="table has shape"):
        harness.emit_csv(np.ones(shape))
    with pytest.raises(ValueError, match="table has shape"):
        harness.emit_json(np.ones(shape), metadata)


def test_metadata_comment_format():
    _, metadata = harness.run_experiment(_cycle_config(k_max=2))
    comment = harness.metadata_comment(metadata)
    assert comment.startswith("# lambda_low=")
    assert comment.endswith("\n")
    body = comment[2:].strip()
    pairs = dict(part.split("=") for part in body.split(", "))
    assert float(pairs["lambda_low"]) == pytest.approx(88.0 / 1200.0, rel=1e-11)
    assert float(pairs["pi_f"]) == pytest.approx(3.65, rel=1e-11)


def test_csv_determinism():
    first, _ = harness.run_experiment(_cycle_config(k_max=10))
    second, _ = harness.run_experiment(_cycle_config(k_max=10))
    assert harness.emit_csv(first) == harness.emit_csv(second)


def test_emit_json_matches():
    results, metadata = harness.run_experiment(_cycle_config(k_max=4))
    payload = json.loads(harness.emit_json(results, metadata))
    assert payload["metadata"]["experiment"] == "cycle-walk"
    assert payload["metadata"]["p"] == 11
    assert payload["metadata"]["k_max"] == 4
    assert payload["metadata"]["lambda_low"] == pytest.approx(88.0 / 1200.0, rel=1e-11)
    assert payload["metadata"]["pi_f"] == pytest.approx(3.65, rel=1e-11)
    assert [row["degree"] for row in payload["rows"]] == [1, 2, 3, 4]
    for row, result in zip(payload["rows"], results):
        for name in harness.FILTER_ORDER:
            assert row[name] == pytest.approx(result[harness.FILTER_ORDER.index(name)], rel=1e-11)


def test_emit_json_formatting():
    results, metadata = harness.run_experiment(_cycle_config(k_max=2))
    text = harness.emit_json(results, metadata)
    token = f"{_column(results, 'ergodic')[0]:.12g}"
    assert token in text


EMIT_CELLS = [0.0, 5e-324, 1e-300, 0.1 + 0.2, 1 / 3, 1.0, 123456789012.5]


def _reference_emit(table, metadata):
    """CSV and JSON text built one ``format(v, ".12g")`` per cell."""
    fmt = lambda value: format(value, ".12g")
    lines = ["degree," + ",".join(harness.FILTER_ORDER)]
    for degree, row in enumerate(table.tolist(), start=1):
        lines.append(f"{degree}," + ",".join(fmt(value) for value in row))
    csv = "\n".join(lines) + "\n"
    rows = table.tolist()
    parts = [
        "{\n",
        '  "metadata": {'
        f'"experiment": "{metadata.experiment}", "p": {metadata.p}, '
        f'"k_max": {metadata.k_max}, "lambda_low": {fmt(metadata.lambda_low)}, '
        f'"pi_f": {fmt(metadata.pi_f)}'
        "},\n",
        '  "rows": [\n',
    ]
    for degree, row in enumerate(rows, start=1):
        fields = ", ".join(f'"{name}": {fmt(value)}' for name, value in zip(harness.FILTER_ORDER, row))
        comma = "," if degree < len(rows) else ""
        parts.append(f'    {{"degree": {degree}, {fields}}}{comma}\n')
    parts.append("  ]\n}\n")
    return csv, "".join(parts)


def test_emit_text_matches_per_cell_format():
    # every cell value sits in every column of the 7-row table
    table = np.array([np.roll(EMIT_CELLS, -i)[:4] for i in range(len(EMIT_CELLS))])
    metadata = harness.RunMetadata("glauber", 4, 7, 1 / 3, 0.1 + 0.2)
    csv, json_text = _reference_emit(table, metadata)
    assert harness.emit_csv(table) == csv
    assert harness.emit_json(table, metadata) == json_text
    single = table[:1]
    assert (harness.emit_csv(single), harness.emit_json(single, metadata)) == _reference_emit(single, metadata)


def test_seeded_run_deterministic():
    config = harness.ExperimentConfig(experiment="cycle-walk", p=11, k_max=5, seed=7)
    first, first_meta = harness.run_experiment(config)
    second, second_meta = harness.run_experiment(config)
    assert harness.emit_csv(first) == harness.emit_csv(second)
    assert first_meta.pi_f == second_meta.pi_f


# ---------------------------------------------------------------------------
# the one-pass finiteness check of the table
# ---------------------------------------------------------------------------


def _poisoned(monkeypatch, name, degrees):
    """Make ``filters.<name>_errors`` return NaN at the given degrees."""
    real = getattr(filters, f"{name}_errors")

    def errors(*args):
        column = real(*args)
        for degree in degrees:
            column[degree - 1] = float("nan")
        return column

    monkeypatch.setattr(filters, f"{name}_errors", errors)


@pytest.mark.parametrize(
    "poison, message",
    [
        ({"ergodic": (1,)}, "degree 1: ['ergodic']"),
        ({"legendre": (20,)}, "degree 20: ['legendre']"),
        ({"chebyshev": (7, 9)}, "degree 7: ['chebyshev']"),
        ({"legendre": (5,), "bernstein": (6, 12)}, "degree 5: ['legendre']"),
        ({"legendre": (4, 8), "bernstein": (4,), "ergodic": (8,)}, "degree 4: ['bernstein', 'legendre']"),
    ],
)
def test_non_finite_cell_names_first_degree(monkeypatch, capsys, poison, message):
    for name, degrees in poison.items():
        _poisoned(monkeypatch, name, degrees)
    with pytest.raises(FloatingPointError) as info:
        harness.run_experiment(_cycle_config())
    assert str(info.value) == f"non-finite filter error at {message}"
    code = cli_main(["cycle-walk", "--paper-defaults"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"numerical failure: non-finite filter error at {message}\n"
