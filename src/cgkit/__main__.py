"""``python -m cgkit``: the command-line interface, also without an install."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
