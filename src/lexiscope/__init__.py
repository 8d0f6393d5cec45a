"""lexiscope: mine software vocabularies from identifiers, locate concepts.

The pipeline: extract declaration nodes from Java sources (or a neutral
JSONL stream), split their names into word tokens, classify tokens against
a WordNet-format dictionary into a per-project vocabulary, intersect
projects into a domain vocabulary, and search code for key-phrases
expanded through lexical relations.
"""

from .domain import (
    DomainTermEntry,
    DomainVocabulary,
    build_domain_vocabulary,
)
from .extractor import (
    ScanDiagnostics,
    SchemaError,
    SourceNode,
    extract_java,
    extract_project,
    ingest_nodes,
)
from .index import InvalidIndexError, ProjectIndex, load_index, save_index
from .lexicon import (
    Lexicon,
    LexiconError,
    MalformedLineError,
    MissingFileError,
    PosTag,
    classify,
    lemmatize,
    load_lexicon,
    related_words,
)
from .locator import (
    ConceptMatch,
    ConceptQuery,
    ScopeError,
    expand_query,
    locate_concept,
    node_scope,
)
from .tokenizer import split_identifier
from .vocabulary import (
    FilterConfig,
    ProjectStats,
    ProjectVocabulary,
    VocabularyEntry,
    build_vocabulary,
    compute_stats,
    load_stoplist,
    top_k,
)

__version__ = "0.1.0"

__all__ = [
    "PosTag",
    "Lexicon",
    "LexiconError",
    "MissingFileError",
    "MalformedLineError",
    "load_lexicon",
    "lemmatize",
    "classify",
    "related_words",
    "SourceNode",
    "ScanDiagnostics",
    "SchemaError",
    "extract_java",
    "extract_project",
    "ingest_nodes",
    "split_identifier",
    "FilterConfig",
    "VocabularyEntry",
    "ProjectVocabulary",
    "ProjectStats",
    "build_vocabulary",
    "compute_stats",
    "top_k",
    "load_stoplist",
    "DomainTermEntry",
    "DomainVocabulary",
    "build_domain_vocabulary",
    "ConceptQuery",
    "ConceptMatch",
    "ScopeError",
    "expand_query",
    "node_scope",
    "locate_concept",
    "ProjectIndex",
    "InvalidIndexError",
    "load_index",
    "save_index",
]
