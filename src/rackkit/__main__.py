from .cli import entry

raise SystemExit(entry())
