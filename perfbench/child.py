"""One cli_oneshot launch: ``python3 child.py TRACE_OUT pmcorr-args...``.

With TRACE_OUT ``-`` this does what the installed ``pmcorr`` console script
does: import ``pmcorr.cli:console_entry`` and call it.  Otherwise it installs
the span recorders before calling ``console_entry`` and, on exit, saves the
spans to TRACE_OUT (an ``.npz`` file).
"""
import sys


def main() -> None:
    trace_out = sys.argv[1]
    sys.argv = ["pmcorr", *sys.argv[2:]]
    from pmcorr.cli import console_entry

    if trace_out == "-":
        console_entry()
        return

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        console_entry()
    finally:
        tracer.uninstall()
        tracer.save(trace_out)


if __name__ == "__main__":
    main()
