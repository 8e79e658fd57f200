"""Tests for experiment configuration, signal generation, and table output."""

import json
import random
import re

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
    assert harness.emit_csv(*harness.run_experiment(explicit)) == harness.emit_csv(
        *harness.run_experiment(defaulted)
    )


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
    # an explicit signal reaches markov.check_signal with its own dtype
    with pytest.raises(ValueError, match="signal values must be real"):
        harness.run_experiment(
            harness.ExperimentConfig(experiment="cycle-walk", p=5, k_max=3, signal=[1 + 2j, 1, 1, 1, 1])
        )
    with pytest.raises(ValueError):
        harness.run_experiment(
            harness.ExperimentConfig(
                experiment="cycle-walk", p=5, k_max=3, use_reference_signal=True
            )
        )


@pytest.mark.parametrize(
    "changes, message",
    [
        (dict(seed=-1), re.escape(f"seed must lie in [0, {2**64}), got -1")),
        (dict(seed=2**64), re.escape(f"seed must lie in [0, {2**64}), got {2**64}")),
        (dict(seed=5.5), "seed must be an integer, got 5.5"),
        (dict(seed=None), "no signal source"),
        (dict(k_max=0), "k_max must be at least 1, got 0"),
        (dict(k_max=2.0), "k_max must be an integer, got 2.0"),
        # a bool is an int to Python, not an integer input here
        (dict(k_max=True), "k_max must be an integer, got True"),
        (dict(seed=False), "seed must be an integer, got False"),
        # a gap bound override is judged a real number before its range
        (dict(lambda_low_override="0.5"), re.escape("lambda_low must be a real number, got '0.5'")),
        (dict(lambda_low_override=True), "lambda_low must be a real number, got True"),
        (dict(lambda_low_override=5.0), re.escape("lambda_low must lie in (0, 2), got 5.0")),
        # a ring size is judged an integer before it is compared with the cap
        (dict(experiment="glauber", p="4"), "ring size must be an integer, got '4'"),
        (dict(experiment="glauber", p=None), "ring size must be an integer, got None"),
        (dict(experiment="glauber", p=4.0), "ring size must be an integer, got 4.0"),
        # numpy integers pass
        (dict(p=np.int64(11), k_max=np.int64(3), seed=np.uint64(2**64 - 1)), None),
    ],
    ids=[
        "seed-1", "seed2^64", "seed5.5", "no-source", "k_max0", "k_max2.0", "k_maxTrue", "seedFalse",
        "lambda_low-str", "lambda_low-True", "lambda_low5.0",
        "glauber-p-str", "glauber-p-None", "glauber-p4.0", "numpy-ints",
    ],
)
def test_config_refused_at_construction(changes, message):
    config = dict(experiment="cycle-walk", p=11, seed=1)
    if message is None:
        table, _ = harness.run_experiment(harness.ExperimentConfig(**{**config, **changes}))
        assert table.shape == (3, 4)
        return
    with pytest.raises(ValueError, match=message):
        harness.ExperimentConfig(**{**config, **changes})


def test_signal_precedence():
    values = list(range(1, 12))
    explicit_only = harness.run_experiment(
        harness.ExperimentConfig(experiment="cycle-walk", p=11, k_max=4, signal=values)
    )
    explicit_and_seed = harness.run_experiment(
        harness.ExperimentConfig(experiment="cycle-walk", p=11, k_max=4, signal=values, seed=9)
    )
    assert harness.emit_csv(*explicit_only) == harness.emit_csv(*explicit_and_seed)

    reference_only = harness.run_experiment(_cycle_config(k_max=4))
    reference_and_seed = harness.run_experiment(_cycle_config(k_max=4, seed=9))
    assert harness.emit_csv(*reference_only) == harness.emit_csv(*reference_and_seed)


def test_lambda_low_override():
    plain_results, plain_meta = harness.run_experiment(_cycle_config(k_max=6))
    tuned_results, tuned_meta = harness.run_experiment(
        _cycle_config(k_max=6, lambda_low_override=0.5)
    )
    assert plain_meta.lambda_low == pytest.approx(88.0 / 1200.0, abs=1e-12)
    assert tuned_meta.lambda_low == 0.5
    # a single-precision override is kept as the Python float of its value
    single = _cycle_config(k_max=6, lambda_low_override=np.float32(0.5))
    assert type(single.lambda_low_override) is float
    single_results, single_meta = harness.run_experiment(single)
    assert np.array_equal(single_results, tuned_results) and type(single_meta.lambda_low) is float
    assert np.array_equal(_column(plain_results, "ergodic"), _column(tuned_results, "ergodic"))
    assert np.any(_column(plain_results, "chebyshev") != _column(tuned_results, "chebyshev"))


@pytest.mark.filterwarnings("error")
def test_near_maximum_signal_is_swept_scaled(cycle_chain):
    # every step commutes with scaling by a power of two, so each table, error
    # sweep and output of a signal near the float64 maximum is that of the
    # same signal scaled into the ordinary range, scaled back, bit for bit;
    # pi_f is the unscaled mean
    signal = np.array([1e308, -1e308] * 5 + [1e308])
    small = np.ldexp(signal, -40)
    for k_max, override in ((20, None), (300, None), (20, 1.9)):
        near, meta = harness.run_experiment(
            _cycle_config(k_max=k_max, lambda_low_override=override, signal=signal)
        )
        scaled, _ = harness.run_experiment(
            _cycle_config(k_max=k_max, lambda_low_override=override, signal=small)
        )
        assert np.all(np.isfinite(near))
        assert np.array_equal(near, np.ldexp(scaled, 40)), (k_max, override)
        assert meta.pi_f == float(np.dot(np.full(11, 1.0 / 11.0), signal))

        lam = cycle_chain.lambda_low if override is None else override
        for run in (
            lambda f: filters.error_table(cycle_chain, f, k_max, lam)[0],
            lambda f: filters.ergodic_apply(cycle_chain, f, k_max + 1),
            lambda f: filters.bernstein_apply(cycle_chain, f, k_max, lam),
            lambda f: filters.chebyshev_apply(cycle_chain, f, k_max, lam),
            lambda f: filters.legendre_apply(cycle_chain, f, k_max, lam),
        ):
            got = np.array(run(signal))
            assert np.all(np.isfinite(got)), (k_max, override)
            assert np.array_equal(got, np.ldexp(run(small), 40)), (k_max, override)


def test_generate_signal_pinned_values():
    assert harness.generate_signal(42, 6) == pytest.approx(
        [7.42, 1.6, 2.79, 3.44, 0.38, 8.68], abs=1e-12
    )
    assert harness.generate_signal(0, 3) == pytest.approx([8.83, 4.32, 0.26], abs=1e-12)
    assert harness.generate_signal(2**64 - 1, 2) == pytest.approx([8.94, 9.13], abs=1e-12)
    assert np.array_equal(
        harness.generate_signal(np.uint64(2**64 - 1), 2), harness.generate_signal(2**64 - 1, 2)
    )
    # a seed outside [0, 2^64) is refused, not wrapped or truncated to another
    for seed, message in (
        (-1, re.escape(f"seed must lie in [0, {2**64}), got -1")),
        (2**64, re.escape(f"seed must lie in [0, {2**64}), got {2**64}")),
        (5.5, "seed must be an integer, got 5.5"),
    ):
        with pytest.raises(ValueError, match=message):
            harness.generate_signal(seed, 3)
    # and a length that is not a nonnegative integer is refused, not rounded
    for count, message in (
        (2.5, "signal length must be an integer, got 2.5"),
        (True, "signal length must be an integer, got True"),
        (-1, "signal length must be at least 0, got -1"),
    ):
        with pytest.raises(ValueError, match=message):
            harness.generate_signal(42, count)
    assert harness.generate_signal(42, np.int64(0)).shape == (0,)


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
    results, metadata = harness.run_experiment(_cycle_config())
    text = harness.emit_csv(results, metadata)
    lines = text.splitlines()
    assert len(lines) == 22
    assert lines[1] == "degree,ergodic,bernstein,chebyshev,legendre"
    assert text.endswith("\n")
    assert "\r" not in text
    first = lines[2].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(_column(results, "ergodic")[0], rel=1e-11)
    assert float(first[4]) == pytest.approx(_column(results, "legendre")[0], rel=1e-11)


def test_emit_csv_destination(tmp_path, capsys):
    # the --out file holds exactly the emitter's text, and stdout nothing
    table = harness.run_experiment(_cycle_config(k_max=3))
    path = tmp_path / "table"
    for flags, emitter in (([], harness.emit_csv), (["--json"], harness.emit_json)):
        argv = ["cycle-walk", "--paper-defaults", "--k-max", "3", *flags, "--out", str(path)]
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == emitter(*table).encode()


def test_emit_csv_rejects_empty():
    _, metadata = harness.run_experiment(_cycle_config(k_max=2))
    with pytest.raises(ValueError):
        harness.emit_csv([], metadata)


@pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 5)])
def test_emit_rejects_table_without_one_column_per_filter(shape):
    _, metadata = harness.run_experiment(_cycle_config(k_max=2))
    with pytest.raises(ValueError, match="table has shape"):
        harness.emit_csv(np.ones(shape), metadata)
    with pytest.raises(ValueError, match="table has shape"):
        harness.emit_json(np.ones(shape), metadata)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_emit_refuses_non_finite_values(bad):
    # JSON has no NaN or infinity, so neither emitter writes one: a table
    # cell or a metadata float that is not finite is refused
    table = np.ones((2, 4))
    metadata = harness.RunMetadata("cycle-walk", 11, 2, 0.5, 1.0)
    bad_cell = table.copy()
    bad_cell[1, 2] = bad
    cases = [
        (bad_cell, metadata),
        (table, harness.RunMetadata("cycle-walk", 11, 2, bad, 1.0)),
        (table, harness.RunMetadata("cycle-walk", 11, 2, 0.5, bad)),
    ]
    for bad_table, bad_metadata in cases:
        for emitter in (harness.emit_csv, harness.emit_json):
            with pytest.raises(ValueError, match="values to serialize must be finite"):
                emitter(bad_table, bad_metadata)
    assert json.loads(harness.emit_json(table, metadata))["rows"][1]["chebyshev"] == 1.0


def test_metadata_comment_format():
    comment = harness.emit_csv(*harness.run_experiment(_cycle_config(k_max=2))).split("\n")[0]
    assert comment.startswith("# lambda_low=")
    body = comment[2:]
    pairs = dict(part.split("=") for part in body.split(", "))
    assert float(pairs["lambda_low"]) == pytest.approx(88.0 / 1200.0, rel=1e-11)
    assert float(pairs["pi_f"]) == pytest.approx(3.65, rel=1e-11)


def test_csv_determinism():
    first = harness.run_experiment(_cycle_config(k_max=10))
    second = harness.run_experiment(_cycle_config(k_max=10))
    assert harness.emit_csv(*first) == harness.emit_csv(*second)


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


@pytest.mark.parametrize("name", ['a"b', "a\tb", "a\\b", "a\nb", "\u00e9t\u00e9"])
def test_emit_json_round_trips_experiment_name(name):
    metadata = harness.RunMetadata(name, 4, 1, 1 / 3, 0.1 + 0.2)
    payload = json.loads(harness.emit_json(np.ones((1, 4)), metadata))
    assert payload["metadata"]["experiment"] == name


EMIT_CELLS = [0.0, 5e-324, 1e-300, 0.1 + 0.2, 1 / 3, 1.0, 123456789012.5]


def _reference_emit(table, metadata):
    """CSV and JSON text built one ``format(v, ".12g")`` per cell."""
    fmt = lambda value: format(value, ".12g")
    lines = [
        f"# lambda_low={fmt(metadata.lambda_low)}, pi_f={fmt(metadata.pi_f)}",
        "degree," + ",".join(harness.FILTER_ORDER),
    ]
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
    assert harness.emit_csv(table, metadata) == csv
    assert harness.emit_json(table, metadata) == json_text
    single = table[:1]
    assert (harness.emit_csv(single, metadata), harness.emit_json(single, metadata)) == _reference_emit(single, metadata)


def test_seeded_run_deterministic():
    config = harness.ExperimentConfig(experiment="cycle-walk", p=11, k_max=5, seed=7)
    first, first_meta = harness.run_experiment(config)
    second, second_meta = harness.run_experiment(config)
    assert harness.emit_csv(first, first_meta) == harness.emit_csv(second, second_meta)
    assert first_meta.pi_f == second_meta.pi_f



# ---------------------------------------------------------------------------
# a non-finite sweep, from the filter through the harness to the CLI
# ---------------------------------------------------------------------------


def _poisoned(monkeypatch, name, degrees):
    """Make the generator behind filter ``name``'s row of
    ``filters.error_table`` yield NaN at the given degrees."""
    real = getattr(filters, f"_{name}_steps")

    def steps(*args):
        for degree, out in enumerate(real(*args), start=1):
            yield np.full_like(out, np.nan) if degree in degrees else out

    monkeypatch.setattr(filters, f"_{name}_steps", steps)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "poison, message",
    [
        ({"ergodic": (1,)}, "ergodic filter error at degree 1"),
        ({"legendre": (20,)}, "legendre filter error at degree 20"),
        ({"chebyshev": (7, 9)}, "chebyshev filter error at degree 7"),
        ({"legendre": (5,), "bernstein": (6, 12)}, "bernstein filter error at degree 6"),
        ({"legendre": (4, 8), "bernstein": (4,), "ergodic": (8,)}, "ergodic filter error at degree 8"),
    ],
)
def test_non_finite_cell_names_first_degree(monkeypatch, capsys, poison, message):
    # the sweeps run in FILTER_ORDER, and the first one that is not finite
    # names its first non-finite degree; no table is made, and the CLI
    # prints that one line with empty stdout
    for name, degrees in poison.items():
        _poisoned(monkeypatch, name, degrees)
    with pytest.raises(FloatingPointError) as info:
        harness.run_experiment(_cycle_config())
    assert str(info.value) == f"non-finite {message}"
    code = cli_main(["cycle-walk", "--paper-defaults"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"numerical failure: non-finite {message}\n"
