"""Word-representable graphs: words, orientations, searches, constructions.

`import wordrep` loads no submodule.  The first lookup of a public name
imports the submodule that defines it and binds the name here (PEP 562), so
`from wordrep import Word` loads `wordrep.words` and what it imports, and
nothing else; later lookups are plain attribute reads.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "chords": (
        "ChordDiagram", "chord_diagram", "chord_svg", "chords_cross", "crossing_graph",
    ),
    "errors": ("ParseError", "VerificationError"),
    "graphs": (
        "FAMILIES", "PETERSEN_EDGES", "Graph", "add_apex", "are_isomorphic",
        "build_family", "chromatic_number", "format_graph", "induced_subgraph",
        "parse_graph",
    ),
    "orientations": (
        "Orientation", "ShortcutWitness", "directed_cycle", "exists_semi_transitive",
        "find_shortcut", "format_orientation", "is_acyclic", "is_semi_transitive",
        "is_shortcut_witness", "is_transitive", "orient_by_order", "parse_orientation",
    ),
    "search": (
        "ABORTED", "EXHAUSTED", "NOT_REPRESENTABLE", "WITNESS_FOUND", "Certificate",
        "RepNumberCertificate", "find_k_uniform_representant",
        "find_permutational_representation", "find_transitive_orientation",
        "poset_dimension", "representation_number",
    ),
    "transforms": (
        "CombinedRepNumbers", "CombineMode", "RepNumberInput", "add_leaf", "add_path",
        "combine", "combined_rep_number", "cone_word", "crown_perm_word", "cycle_word",
        "equalize_uniformity", "fallback_counts", "ladder_word", "substitute_module",
        "tree_word",
    ),
    "words": (
        "LinearOrderFamily", "UniformityProfile", "Word", "alternates", "concat_orders",
        "cyclic_shift", "derive_graph", "extend_uniform", "format_word",
        "initial_permutation", "parse_word", "permutation_blocks", "represents",
        "reverse", "uniformity",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_OWNER)]


def __getattr__(name: str):
    if name in _EXPORTS:  # `wordrep.search` after a bare `import wordrep`
        return import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
