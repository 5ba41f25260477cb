import warnings

from hypothesis import settings

settings.register_profile("lab", deadline=None, max_examples=60)
settings.load_profile("lab")

# On a failing example hypothesis's pytest plugin imports its patch writer,
# which loads libcst, and libcst's import warns that mypy_extensions.TypedDict
# is deprecated.  filterwarnings = ["error"] would turn that warning into an
# INTERNALERROR that ends the session before the falsifying example is
# printed, so the writer is imported here, with that one warning silenced.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is optional; without it the plugin skips the patch
        pass
