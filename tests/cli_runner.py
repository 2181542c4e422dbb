"""Run the zetaforge command line in process, with its output captured."""

import io
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

from zetaforge.cli import main


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self):
        # main writes stderr once, after all of stdout: this is a terminal's order
        return self.stdout + self.stderr


def run(*args):
    """`zetaforge args...` as its console script runs it, with the exit code
    that `main` returns or exits with."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            main(list(args))
            exit_code = 0
        except SystemExit as exc:
            exit_code = exc.code or 0
    return Result(exit_code, stdout.getvalue(), stderr.getvalue())
