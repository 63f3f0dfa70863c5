"""Jamo-level compositional neural dependency parser for Korean."""

from .encoder import SentenceEncoder, UnitConfig
from .hangul import EMPTY, JamoTriple, compose, decompose, decompose_text
from .model_io import load_model, save_model
from .parser import TrainedModel, TrainSettings, greedy_parse, train
from .vocab import Vocabulary

__version__ = "0.1.0"

__all__ = [
    "EMPTY",
    "JamoTriple",
    "SentenceEncoder",
    "TrainedModel",
    "TrainSettings",
    "UnitConfig",
    "Vocabulary",
    "compose",
    "decompose",
    "decompose_text",
    "greedy_parse",
    "load_model",
    "save_model",
    "train",
]
