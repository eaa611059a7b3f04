"""Tests for the Table 2 model zoo."""

import numpy as np
import pytest

from repro.core import Domain, ModelName, UnknownModelError
from repro.workload import model_spec, models_by_domain
from repro.workload.models import spec_or_synthetic


class TestZoo:
    def test_eight_models(self):
        assert len({model_spec(m).name for m in ModelName}) == 8

    def test_domains_match_table2(self):
        assert model_spec("VGG19").domain is Domain.CV
        assert model_spec("Bert_base").domain is Domain.NLP
        assert model_spec("DeepSpeech").domain is Domain.SPEECH
        assert model_spec("GraphSAGE").domain is Domain.REC

    def test_batch_sizes_match_table2(self):
        expected = {
            "VGG19": 128, "ResNet50": 64, "InceptionV3": 32,
            "Bert_base": 32, "Transformer": 128, "DeepSpeech": 8,
            "FastGCN": 128, "GraphSAGE": 16,
        }
        for name, bs in expected.items():
            assert model_spec(name).default_batch_size == bs

    def test_unknown_model(self):
        with pytest.raises(UnknownModelError):
            model_spec("AlexNet")

    def test_lookup_by_enum(self):
        assert model_spec(ModelName.VGG19).name is ModelName.VGG19

    def test_models_by_domain_partition(self):
        total = sum(len(models_by_domain(d)) for d in Domain)
        assert total == 8


class TestSizes:
    def test_model_bytes_fp32(self):
        spec = model_spec("ResNet50")
        assert spec.model_bytes == pytest.approx(25.6e6 * 4)

    def test_vgg_is_the_biggest_cnn(self):
        assert (
            model_spec("VGG19").model_bytes > model_spec("ResNet50").model_bytes
        )

    def test_graph_models_are_tiny(self):
        assert model_spec("GraphSAGE").model_bytes < 10e6

    def test_training_memory_exceeds_weights(self):
        for spec in map(model_spec, ModelName):
            assert spec.training_memory_bytes() > 3 * spec.model_bytes


class TestLayerSplit:
    def test_layer_bytes_sum_to_model(self):
        for spec in map(model_spec, ModelName):
            layers = spec.layer_bytes()
            assert layers.sum() == pytest.approx(spec.model_bytes, rel=1e-9)
            assert len(layers) == spec.num_layers

    def test_layers_positive(self):
        for spec in map(model_spec, ModelName):
            assert (spec.layer_bytes() > 0).all()

    def test_vgg_head_dominates(self):
        layers = model_spec("VGG19").layer_bytes()
        assert layers[-1] > 0.5 * layers.sum()

    def test_deterministic(self):
        a = model_spec("Bert_base").layer_bytes()
        b = model_spec("Bert_base").layer_bytes()
        np.testing.assert_array_equal(a, b)


class TestComputeDemand:
    def test_graphsage_is_input_bound(self):
        # §2.2.1: GraphSAGE cannot keep a fast GPU busy.
        assert model_spec("GraphSAGE").compute_demand < 0.6

    def test_cnns_are_compute_bound(self):
        assert model_spec("ResNet50").compute_demand == 1.0


class TestSyntheticFallback:
    def test_zoo_names_pass_through(self):
        assert spec_or_synthetic("VGG19").name is ModelName.VGG19

    def test_unknown_gets_synthetic(self):
        spec = spec_or_synthetic("my_custom_model")
        assert spec.model_bytes > 0
        assert spec.training_memory_bytes() > 0

    def test_synthetic_layer_split_valid(self):
        layers = spec_or_synthetic("whatever").layer_bytes()
        assert layers.sum() > 0
