"""The config reader: typed values, key checks, full documents, and defaults."""
import math

import pytest

from rdspill.config import boolean, integer, list_of, read_section, real, text
from rdspill.errors import ConfigError
from rdspill.estimators import EstimatorConfig
from rdspill.experiments import ExperimentPlan, RegimeRule, benchmark_model
from rdspill.funcspace import FuncSpec, ModelSpec, constant, sinusoid_sum


class TestReaders:
    @pytest.mark.parametrize("value", [0.5, -3, 2e4])
    def test_real_accepts_finite_numbers(self, value):
        assert real(value) == value and type(real(value)) is float

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "0.5", None, [1.0]])
    def test_real_refuses(self, value):
        with pytest.raises((TypeError, ValueError)):
            real(value)

    @pytest.mark.parametrize("value, expected", [(7, 7), (2e4, 20000), (0.0, 0)])
    def test_integer_accepts_whole_values(self, value, expected):
        assert integer(value) == expected and type(integer(value)) is int

    @pytest.mark.parametrize("value", [500.9, 1.5, -1, True, "7", math.nan, None])
    def test_integer_refuses(self, value):
        with pytest.raises((TypeError, ValueError)):
            integer(value)

    def test_text_boolean_and_lists(self):
        assert text("triangular") == "triangular"
        assert boolean(False) is False
        assert list_of(integer)([1, 2.0]) == (1, 2)
        for reader, value in ((text, 1), (boolean, 1), (boolean, "true"),
                              (list_of(real), 0.05), (list_of(real), "ab"),
                              (list_of(real), [0.1, None])):
            with pytest.raises((TypeError, ValueError)):
                reader(value)


def _subsection(doc):
    return read_section(doc, "t", {"k": real})


class TestReadSection:
    READERS = ({"n": integer}, {"kernel": text})

    def test_reads_and_leaves_absent_optional_keys_absent(self):
        assert read_section({"n": 2e4}, "s", *self.READERS) == {"n": 20000}

    @pytest.mark.parametrize("doc, words", [
        ([1], ["s", "JSON object"]),
        ({"n": 1, "bw": 2}, ["unknown", "bw"]),
        ({"kernel": "uniform"}, ["missing", "n"]),
        ({"n": "abc"}, ["s:", "'n'", "finite number"]),
        ({"n": 1.5}, ["s:", "'n'", "whole number"]),
        ({"n": 1, "kernel": 5}, ["s:", "'kernel'", "string"]),
    ])
    def test_refusals_name_the_section_and_key(self, doc, words):
        with pytest.raises(ConfigError) as err:
            read_section(doc, "s", *self.READERS)
        assert all(word in str(err.value) for word in words)

    def test_nested_config_error_names_the_section_and_key(self):
        def nested(value):
            raise ConfigError("inner message")
        with pytest.raises(ConfigError, match="^s: 'n': inner message$"):
            read_section({"n": 1}, "s", {"n": nested})

    @pytest.mark.parametrize("reader, value, message", [
        (list_of(real), [1, 2, "x"], "s: 'n'[2] must be a finite number, got 'x'"),
        (list_of(list_of(real)), [[1], [2, None]],
         "s: 'n'[1][1] must be a finite number, got None"),
        (list_of(_subsection), [{"k": 1}, 5], "s: 'n'[1]: t must be a JSON object, got 5"),
        (list_of(_subsection), [{"k": "a"}],
         "s: 'n'[0]: t: 'k' must be a finite number, got 'a'"),
    ])
    def test_list_refusals_name_the_index(self, reader, value, message):
        with pytest.raises(ConfigError) as err:
            read_section({"n": value}, "s", {"n": reader})
        assert str(err.value) == message

    def test_huge_integer_is_a_config_error(self):
        with pytest.raises(ConfigError, match="'n'"):
            read_section({"n": 10 ** 400}, "s", {"n": real})


@pytest.mark.parametrize("obj", [
    EstimatorConfig(kernel="triangular", h=0.2),
    EstimatorConfig(kernel="epanechnikov", h=0.25, r=0.05, h_donut=0.01),
], ids=lambda obj: type(obj).__name__)
def test_from_config_inverts_to_config(obj):
    assert type(obj).from_config(obj.to_config()) == obj


def _benchmark_doc():
    return {
        "m_plus": {"family": "polynomial", "coefficients": [1.0, 0.3]},
        "m_minus": {"family": "polynomial", "coefficients": [0.0, 0.2]},
        "delta": {"family": "constant", "coefficients": [0.4]},
        "gamma": {"family": "constant", "coefficients": [0.5]},
        "noise_sd": {"family": "constant", "coefficients": [0.1]},
    }


def _one_sided_doc():
    return {
        "m_plus": {"family": "constant", "coefficients": [1.0]},
        "m_minus": {"family": "constant", "coefficients": [0.0]},
        "delta": {"family": "constant", "coefficients": [0.0]},
        "gamma": {"family": "constant", "coefficients": [0.5]},
        "noise_sd": {"family": "constant", "coefficients": [0.1]},
        "gamma_one_sided": True,
    }


ONE_SIDED = ModelSpec(m_plus=constant(1.0), m_minus=constant(0.0), delta=constant(0.0),
                      gamma=constant(0.5), noise_sd=constant(0.1), gamma_one_sided=True)
# the three regimes of the phase-transition study, one rule each
PHASE_REGIMES = (
    RegimeRule("r>>h", "tau_d", 1.0, 0.1),
    RegimeRule("r<<h", "tau_tot", 1.0, -0.1),
    RegimeRule("r~h", "tau_star", 0.5, 0.0),
)
PHASE_RULE_DOCS = [
    {"label": "r>>h", "target": "tau_d", "factor": 1.0, "n_power": 0.1},
    {"label": "r<<h", "target": "tau_tot", "factor": 1.0, "n_power": -0.1},
    {"label": "r~h", "target": "tau_star", "factor": 0.5, "n_power": 0.0},
]


# every key written out, optional ones included
@pytest.mark.parametrize("doc, obj", [
    ({"family": "sinusoid-sum", "coefficients": [0.3, 0.02, 1.0]},
     sinusoid_sum([0.3, 0.02, 1.0])),
    (_benchmark_doc(), benchmark_model()),
    (_one_sided_doc(), ONE_SIDED),
    ({"label": "r~h", "target": "tau_star", "factor": 0.5, "n_power": 0.0},
     RegimeRule("r~h", "tau_star", 0.5)),
    ({"label": "r<<h", "target": "tau_tot", "factor": 1.0, "n_power": -0.1},
     RegimeRule("r<<h", "tau_tot", 1.0, -0.1)),
    ({"model": _benchmark_doc(), "regime_map": PHASE_RULE_DOCS, "n_grid": [1000],
      "replications": 2, "seed": 1, "h_coef": 1.0, "h_power": -0.2,
      "kernel": "triangular", "grid_n": 4001},
     ExperimentPlan(model=benchmark_model(), regime_map=PHASE_REGIMES, n_grid=(1000,),
                    replications=2, seed=1)),
    ({"model": _one_sided_doc(), "regime_map": PHASE_RULE_DOCS[:1], "n_grid": [1000, 4000],
      "replications": 3, "seed": 9, "h_coef": 0.8, "h_power": -0.15,
      "kernel": "uniform", "grid_n": 2001},
     ExperimentPlan(model=ONE_SIDED, regime_map=PHASE_REGIMES[:1], n_grid=(1000, 4000),
                    replications=3, seed=9, h_coef=0.8, h_power=-0.15, kernel="uniform",
                    grid_n=2001)),
], ids=["FuncSpec", "ModelSpec0", "ModelSpec1", "RegimeRule0", "RegimeRule1",
        "ExperimentPlan0", "ExperimentPlan1"])
def test_from_config_reads_every_key(doc, obj):
    assert type(obj).from_config(doc) == obj


def test_absent_optional_keys_give_the_dataclass_defaults(benchmark_model_doc):
    rule_doc = {"label": "r~h", "target": "tau_star", "factor": 0.5}
    plan = ExperimentPlan.from_config({"model": benchmark_model_doc, "regime_map": [rule_doc],
                                       "n_grid": [1000], "replications": 2, "seed": 1})
    assert plan == ExperimentPlan(model=benchmark_model(),
                                  regime_map=(RegimeRule("r~h", "tau_star", 0.5),),
                                  n_grid=(1000,), replications=2, seed=1)
    assert EstimatorConfig.from_config({"kernel": "uniform", "h": 0.5}) \
        == EstimatorConfig(kernel="uniform", h=0.5)
    assert ModelSpec.from_config(benchmark_model_doc).gamma_one_sided is False
    assert FuncSpec.from_config({"family": "constant", "coefficients": [2]}) == constant(2.0)
