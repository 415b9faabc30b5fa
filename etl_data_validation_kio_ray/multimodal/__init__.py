from .decode import ImageFeatureStage, multimodal_schema

__all__ = ["ImageFeatureStage", "multimodal_schema"]
