"""Memory system: images, allocator, remember sets, hierarchy presets."""

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
    CompressedCodeFault,
    CompressionArtifacts,
    ImageError,
    InPlaceImage,
    SeparateAreaImage,
    artifact_cache,
    compression_artifacts,
    set_artifact_provider,
)
from .remember_set import RememberSets

__all__ = [
    "AllocationError",
    "ArtifactCache",
    "artifact_cache",
    "BlockImage",
    "CodeImage",
    "CompressedCodeFault",
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
    "RememberSets",
    "SeparateAreaImage",
    "available_hierarchies",
    "get_hierarchy",
    "register_hierarchy",
]
