"""``python -m secretary_lab`` runs the secretary-lab command line."""

from .cli import main

if __name__ == "__main__":
    main()
