"""``python -m transmaps`` runs the command-line interface."""
from transmaps.cli import main

raise SystemExit(main())
