"""Run `verify` in-process, as a shell would run it."""

import contextlib
import io
from collections import namedtuple

from nctangent import cli

Result = namedtuple("Result", "stdout stderr exit_code exception")


def invoke(args):
    """`verify args...` in standalone mode: its stdout, its stderr, its
    exit code, and the exception that ended it, or None when it returned
    or exited 0.  An exception other than `SystemExit` would be a
    traceback in a shell; it is caught and counts as exit code 1."""
    out, err = io.StringIO(), io.StringIO()
    code, exception = 0, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main(list(args))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        exception = exc if code else None
    except Exception as exc:
        code, exception = 1, exc
    return Result(out.getvalue(), err.getvalue(), code, exception)
