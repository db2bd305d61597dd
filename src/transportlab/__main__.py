"""``python -m transportlab``: the ``transportlab`` command."""
from .cli import entry

if __name__ == "__main__":
    entry()
