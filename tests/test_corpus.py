"""Site CSV ingestion, wet-day filtering, synthesis, and manifests."""

import hashlib
import json
import math
import pickle
import re
from datetime import date, timedelta

import numpy as np
import pytest

from rainfit.corpus import (
    CSV_HEADER,
    CorpusError,
    EmptySeriesError,
    GeneratorSpec,
    MalformedRowError,
    Manifest,
    PRESETS,
    SiteSeries,
    build_preset,
    filter_corpus,
    load_manifest,
    load_site,
    save_site,
    simulate_corpus,
    simulate_site,
    write_manifest,
)
from rainfit.egpd import EgpdParams, egpd_cdf
from rainfit.numerics import RngState

import oracles


def write_csv(path, rows, header=CSV_HEADER):
    lines = [header] + rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# --- load_site ----------------------------------------------------------------


def test_load_drops_zero_and_missing(tmp_path):
    path = write_csv(
        tmp_path / "stn.csv",
        [
            "2000-01-01,0",
            "2000-01-02,1.2",
            "2000-01-03,0.0",
            "2000-01-04,3.4",
            "2000-01-05,",
        ],
    )
    site = load_site(path)
    assert site.values.tolist() == [1.2, 3.4]
    assert site.n_wet == 2
    assert site.site_id == "stn"


def test_load_all_zero_is_empty_series(tmp_path):
    rows = [f"2000-01-{d:02d},0" for d in range(1, 29)] * 4
    path = write_csv(tmp_path / "dry.csv", rows[:100])
    with pytest.raises(EmptySeriesError):
        load_site(path)


def test_load_negative_value_reports_line(tmp_path):
    path = write_csv(
        tmp_path / "bad.csv",
        ["2000-01-01,1.0", "2000-01-02,-0.5"],
    )
    with pytest.raises(MalformedRowError) as exc:
        load_site(path)
    assert ":3:" in str(exc.value)


def test_load_rejects_malformed_rows(tmp_path):
    cases = [
        (["2000-01-01"], "missing field"),
        (["2000-01-01,1.0,extra"], "extra field"),
        (["not-a-date,1.0"], "bad date"),
        (["20000101,1.0"], "basic-format date"),
        (["2000-W01-1,1.0"], "week date"),
        (["2000-1-1,1.0"], "unpadded date"),
        (["2000-01-01,abc"], "bad number"),
        (["2000-01-01,inf"], "non-finite"),
    ]
    for rows, label in cases:
        path = write_csv(tmp_path / "m.csv", rows)
        with pytest.raises(MalformedRowError, match=f"^{re.escape(str(path))}:2: "):
            load_site(path)


def test_load_rejects_wrong_header(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("day,mm\n2000-01-01,1.0\n", encoding="utf-8")
    with pytest.raises(MalformedRowError):
        load_site(path)


def test_load_accepts_crlf_and_bom(tmp_path):
    path = tmp_path / "crlf.csv"
    payload = f"{CSV_HEADER}\r\n2000-01-01,2.5\r\n2000-01-02,1.0\r\n"
    path.write_bytes(b"\xef\xbb\xbf" + payload.encode("utf-8"))
    site = load_site(path)
    assert site.values.tolist() == [2.5, 1.0]


def test_save_load_roundtrip_is_identity(tmp_path):
    values = np.array([0.30000000000000004, 1.2, 250.75, 2.0**-20 + 1.0])
    series = SiteSeries(site_id="rt", values=values)
    path = tmp_path / "rt.csv"
    save_site(path, series)
    back = load_site(path)
    assert np.array_equal(back.values, values)
    first = path.read_text(encoding="utf-8").splitlines()[0]
    assert first == CSV_HEADER


def test_site_series_validation():
    with pytest.raises(ValueError):
        SiteSeries(site_id="x", values=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        SiteSeries(site_id="x", values=np.array([np.inf]))


@pytest.mark.parametrize("values", [np.array([]), []])
def test_site_series_of_no_values_is_an_empty_series(values):
    with pytest.raises(EmptySeriesError, match="^site x: no wet days$"):
        SiteSeries(site_id="x", values=values)


def test_site_values_are_a_read_only_array_that_numpy_views(tmp_path):
    path = tmp_path / "read.csv"
    save_site(path, SiteSeries(site_id="drawn", values=np.array([2.5, 1.0, 4.0])))
    site = load_site(path)
    assert site.n_wet == 3
    for site in (site, pickle.loads(pickle.dumps(site))):
        view = np.asarray(site.values)
        assert site.site_id == "read" and view.dtype == np.float64 and view.tolist() == [2.5, 1.0, 4.0]
        assert not view.flags.writeable and np.shares_memory(view, site.values)
        with pytest.raises(ValueError):
            site.values[0] = 1.0


# --- filter_corpus -----------------------------------------------------------------


def site_with_n(n, site_id="s"):
    return SiteSeries(site_id=site_id, values=np.linspace(0.5, 5.0, n))


def test_filter_keeps_boundary_site():
    kept, dropped = filter_corpus([site_with_n(99, "a"), site_with_n(100, "b")])
    assert [s.site_id for s in kept] == ["b"]
    assert dropped == 1


def test_filter_empty_input():
    kept, dropped = filter_corpus([])
    assert kept == []
    assert dropped == 0


# --- simulation ----------------------------------------------------------------------


EGPD_SPEC = GeneratorSpec(
    site_id="sim-egpd",
    family="egpd",
    params={"kappa": 2.0, "sigma": 5.0, "xi": 0.2},
    n=5000,
    seed=11,
)


def test_simulate_egpd_ks():
    site = simulate_site(EGPD_SPEC)
    assert site.n_wet == 5000
    params = EgpdParams(**EGPD_SPEC.params)
    assert oracles.ks_ok(site.values, lambda v: egpd_cdf(v, params))


def test_simulate_discretized_multiples():
    spec = GeneratorSpec(
        site_id="sim-disc",
        family="egpd",
        params=EGPD_SPEC.params,
        n=5000,
        seed=11,
        discretize_mm=0.2,
    )
    site = simulate_site(spec)
    assert site.n_wet <= 5000
    assert np.all(site.values > 0.0)
    ratio = site.values / 0.2
    assert np.max(np.abs(ratio - np.round(ratio))) < 1e-9


def test_simulate_single_gamma_mean():
    spec = GeneratorSpec(
        site_id="sim-gamma",
        family="gamma-mixture",
        params={"weights": (1.0, 0.0), "shapes": (2.0, 5.0), "scales": (3.0, 1.0)},
        n=100_000,
        seed=9,
    )
    site = simulate_site(spec)
    se = float(np.std(site.values, ddof=1)) / math.sqrt(site.n_wet)
    assert abs(float(np.mean(site.values)) - 6.0) <= 3.0 * se


def test_simulate_bit_reproducible():
    a = simulate_site(EGPD_SPEC)
    b = simulate_site(EGPD_SPEC)
    assert np.array_equal(a.values, b.values)


def test_generator_spec_validation():
    with pytest.raises(CorpusError):
        GeneratorSpec(site_id="x", family="weibull", params={}, n=500, seed=1)
    with pytest.raises(CorpusError):
        GeneratorSpec(site_id="x", family="egpd", params={}, n=99, seed=1)
    with pytest.raises(CorpusError):
        GeneratorSpec(
            site_id="x", family="egpd", params={}, n=500, seed=1, discretize_mm=0.0
        )
    # Nothing is drawn to find these: save_site dates rows from 2000-01-01,
    # and an infinite increment would round every draw to nothing.
    params = EGPD_SPEC.params
    assert date(2000, 1, 1) + timedelta(days=2_921_940 - 1) == date.max
    GeneratorSpec(site_id="x", family="egpd", params=params, n=2_921_940, seed=1)
    for n in (2_921_941, 10**12):
        with pytest.raises(CorpusError, match="generator n must be from 100 to 2921940"):
            GeneratorSpec(site_id="x", family="egpd", params=params, n=n, seed=1)
    for increment in (math.inf, math.nan):
        with pytest.raises(CorpusError, match="discretize_mm must be finite and > 0"):
            GeneratorSpec(site_id="x", family="egpd", params=params, n=500, seed=1,
                          discretize_mm=increment)


@pytest.mark.parametrize("field, value", [("n", 150.5), ("n", True), ("n", "300"), ("n", np.float64(300.0)),
                                          ("seed", 1.5), ("seed", False)])
def test_generator_spec_refuses_a_count_that_is_not_an_integer(field, value):
    # simulate_site would otherwise fail in numpy or RngState, or truncate.
    fields = {**dict(site_id="x", family="egpd", params=EGPD_SPEC.params, n=500, seed=1), field: value}
    with pytest.raises(CorpusError, match=f"^'{field}' must be an integer, got {re.escape(repr(value))}$"):
        GeneratorSpec(**fields)


def test_generator_spec_stores_a_numpy_integer_as_an_int():
    spec = GeneratorSpec(site_id="x", family="egpd", params=EGPD_SPEC.params, n=np.int64(500), seed=np.uint64(11))
    assert (type(spec.n), type(spec.seed)) == (int, int)
    same = GeneratorSpec(site_id="x", family="egpd", params=EGPD_SPEC.params, n=500, seed=11)
    assert np.array_equal(simulate_site(spec).values, simulate_site(same).values)


def test_generator_spec_takes_numpy_numbers_from_code_callers():
    # The number check a manifest's strings and booleans fail lets numpy
    # scalars and arrays through, as code callers pass them.
    GeneratorSpec(site_id="x", family="egpd", n=500, seed=1, discretize_mm=np.float64(0.2),
                  params={"kappa": np.float64(1.2), "sigma": np.int64(5), "xi": np.float32(0.1)})
    GeneratorSpec(site_id="x", family="gamma-mixture", n=500, seed=1,
                  params={"weights": np.array([0.4, 0.6]), "shapes": (0.8, 3.0), "scales": [2.0, 6.0]})
    with pytest.raises(CorpusError, match="'weights' holds a boolean, not a number"):
        GeneratorSpec(site_id="x", family="gamma-mixture", n=500, seed=1,
                      params={"weights": np.array([True, False]), "shapes": [0.8, 3.0], "scales": [2.0, 6.0]})


# --- presets --------------------------------------------------------------------------


def test_presets_exist_and_size():
    assert set(PRESETS) == {
        "paper-like-50",
        "egpd-50",
        "egpd-50-discretized",
        "mixture-50",
    }
    for name in PRESETS:
        specs = build_preset(name, seed=11)
        assert len(specs) == 50
        assert [s.site_id for s in specs] == [f"site-{i:03d}" for i in range(50)]


def test_preset_unknown_name():
    with pytest.raises(CorpusError):
        build_preset("nope-50", seed=1)


def test_preset_deterministic():
    a = build_preset("paper-like-50", seed=11)
    b = build_preset("paper-like-50", seed=11)
    assert [s.to_dict() for s in a] == [s.to_dict() for s in b]
    c = build_preset("paper-like-50", seed=12)
    assert [s.to_dict() for s in a] != [s.to_dict() for s in c]


def test_preset_discretized_twin_shares_draws():
    plain = build_preset("egpd-50", seed=11)
    disc = build_preset("egpd-50-discretized", seed=11)
    for a, b in zip(plain, disc):
        assert a.params == b.params
        assert a.seed == b.seed
        assert a.discretize_mm is None
        assert b.discretize_mm == 0.2



def test_presets_draw_frozen_specs():
    # Every preset's specs at three seeds, frozen (computed on numpy 2.4.6):
    # a change to the preset table or to the order of its draws shows here.
    specs = {f"{name}/{seed}": [spec.to_dict() for spec in build_preset(name, seed)]
             for name in PRESETS for seed in (1, 2, 11)}
    text = json.dumps([list(PRESETS), specs], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7b08537729bfa014323b8e3ae03aa1b5c30cc62b160b93bbccfc7e276bfd30e3")

def test_paper_like_preset_has_enough_wet_days():
    specs = build_preset("paper-like-50", seed=11)
    sites = simulate_corpus(specs)
    assert len(sites) == 50
    assert all(s.n_wet >= 100 for s in sites)
    assert {spec.family for spec in specs} == {"egpd", "gamma-mixture"}


# --- manifests -------------------------------------------------------------------------


def test_manifest_roundtrip(tmp_path):
    gen = [EGPD_SPEC]
    write_manifest(tmp_path / "manifest.json", seed=11, generators=gen)
    manifest = load_manifest(tmp_path / "manifest.json")
    assert isinstance(manifest, Manifest)
    assert manifest.seed == 11
    assert manifest.site_paths == ()
    assert [g.to_dict() for g in manifest.generators] == [EGPD_SPEC.to_dict()]


def test_manifest_site_paths_resolve_relative(tmp_path):
    sub = tmp_path / "corpus"
    sub.mkdir()
    site_path = sub / "s1.csv"
    write_csv(site_path, ["2000-01-01,1.5", "2000-01-02,2.5"])
    write_manifest(sub / "manifest.json", seed=3, sites=["s1.csv"])
    manifest = load_manifest(sub / "manifest.json")
    assert manifest.site_paths == (site_path,)


def test_manifest_requires_content(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"seed": 1}), encoding="utf-8")
    with pytest.raises(CorpusError):
        load_manifest(path)


def test_manifest_generator_seed_defaults_derive_from_corpus_seed(tmp_path):
    spec_dict = EGPD_SPEC.to_dict()
    del spec_dict["seed"]
    path = tmp_path / "m.json"
    path.write_text(
        json.dumps({"seed": 5, "generators": [spec_dict]}), encoding="utf-8"
    )
    manifest = load_manifest(path)
    assert manifest.generators[0].seed == RngState(seed=5).derive(0).stream
