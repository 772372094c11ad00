"""Memory system: images, allocator, hierarchy presets."""

from .allocator import AllocationError, FreeHole, FreeListAllocator
from .hierarchy import (
    HIERARCHIES,
    MemoryHierarchy,
    MemoryLevel,
    available_hierarchies,
    get_hierarchy,
    register_hierarchy,
)
from .image import (
    ArtifactCache,
    BlockImage,
    CodeImage,
    CompressionArtifacts,
    ImageError,
    InPlaceImage,
    SeparateAreaImage,
    artifact_cache,
    compression_artifacts,
    set_artifact_provider,
)

__all__ = [
    "AllocationError",
    "ArtifactCache",
    "artifact_cache",
    "BlockImage",
    "CodeImage",
    "CompressionArtifacts",
    "compression_artifacts",
    "set_artifact_provider",
    "FreeHole",
    "FreeListAllocator",
    "HIERARCHIES",
    "ImageError",
    "InPlaceImage",
    "MemoryHierarchy",
    "MemoryLevel",
    "SeparateAreaImage",
    "available_hierarchies",
    "get_hierarchy",
    "register_hierarchy",
]
