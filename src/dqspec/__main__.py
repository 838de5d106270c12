"""``python -m dqspec``: the same program as the ``dqspec`` console script.

A Ctrl-C that arrives while the program is still importing exits 130
with ``interrupted``, as one that arrives later does."""

import sys

try:
    from dqspec.cli import main
except KeyboardInterrupt:
    sys.stderr.write("interrupted\n")
    sys.exit(130)

sys.exit(main())
