"""``python -m nhsdp``: the same command line as the ``nhsdp`` console script."""

from .cli import main

raise SystemExit(main())
