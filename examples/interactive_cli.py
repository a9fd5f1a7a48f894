#!/usr/bin/env python3
"""An interactive terminal version of the ETable interface.

Drives a live :class:`repro.core.repl.Repl` over the academic database.
Type ``help`` for the command list; a session reproducing Figure 7 looks
like::

    etable> open Conferences
    etable> filter acronym = SIGMOD
    etable> seeall 0 Papers
    etable> filter year > 2005
    etable> pivot Authors
    etable> pivot Institutions
    etable> filter country like %Korea%
    etable> pivot Authors
    etable> history
    etable> sql

Run:  python examples/interactive_cli.py
"""

import sys

from repro.core.repl import Repl
from repro.datasets.academic import AcademicConfig, academic_tgdb

DEMO_SCRIPT = """\
tables
open Conferences
filter acronym = SIGMOD
seeall 0 Papers
filter year > 2005
pivot Authors
pivot Institutions
filter country like %Korea%
pivot Authors
history
sql
"""


def main() -> None:
    print("Generating the academic database ...", flush=True)
    tgdb = academic_tgdb(AcademicConfig(papers=1200, seed=7))
    repl = Repl(tgdb.schema, tgdb.graph, mapping=tgdb.mapping)

    if not sys.stdin.isatty() or "--demo" in sys.argv:
        # Non-interactive runs replay the Figure 7 session.
        print("(non-interactive: replaying the Figure 7 demo script)\n")
        for line, output in zip(
            DEMO_SCRIPT.splitlines(), repl.run_script(DEMO_SCRIPT)
        ):
            print(f"etable> {line}")
            if output:
                print(output)
            print()
        return

    print("ETable interactive session — type 'help' for commands.\n")
    print(repl.execute_line("tables"))
    while not repl.done:
        try:
            line = input("etable> ")
        except EOFError:
            break
        output = repl.execute_line(line)
        if output:
            print(output)


if __name__ == "__main__":
    main()
