"""``python -m pmcorr ...`` runs the pmcorr command line."""
from .cli import console_entry

if __name__ == "__main__":
    console_entry()
