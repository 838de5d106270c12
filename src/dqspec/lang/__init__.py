"""The quality-specification language: AST, parser, checker, formatter.

Each public name is imported from its submodule on first access."""

import importlib

# public name -> the submodule that defines it
_HOME = {
    name: module
    for module, names in {
        ".ast": ("ast",),
        ".checker": ("ValidatedSpec", "check_spec", "spec_hash"),
        ".diagnostics": (
            "NO_POS",
            "Pos",
            "SemanticIssue",
            "SpecEncodingError",
            "SpecSyntaxError",
            "SpecValidationError",
        ),
        ".formatter": ("format_expr", "format_field_decl", "format_spec"),
        ".parser": ("parse_expression", "parse_spec"),
    }.items()
    for name in names
}

__all__ = [*_HOME]


def __getattr__(name: str):
    # not a public name: `from dqspec.lang import lexer` then imports the submodule
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(_HOME[name], __name__)
    value = module if name == "ast" else getattr(module, name)
    globals()[name] = value
    return value
