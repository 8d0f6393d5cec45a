"""Run the command-line interface as ``python -m lexiscope``."""

from .cli import entrypoint

__all__: list[str] = []

if __name__ == "__main__":
    entrypoint()
