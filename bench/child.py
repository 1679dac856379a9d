"""Run one secretary-lab operation in a fresh interpreter.

Usage: ``python3 bench/child.py '<spec json>'`` with ``src`` on
PYTHONPATH.  The spec keys are ``argv`` (a CLI call), ``files`` (outputs
to digest), ``keep_stdout``, ``edge`` (compute the edge-point eps
instead of a CLI call), ``probe`` (only import and report), ``trace``
(wrap the package's layer functions first) and ``pace`` (sample the CPU
speed while the operation runs, see ``pace.Pacer``).

The child prints one JSON line: the CLOCK_MONOTONIC instants at which
the package finished importing and the operation started and ended, the
exit code, SHA-256 digests of stdout and of each output file, and the
speed samples (``pace``, in nanoseconds of ``pace.reference_work``;
``lead_pace`` holds those taken right after import, ``pace_busy_ns`` the
time the samples took out of the operation).  The parent measures
set-up time from its own spawn instant to ``ready_ns``, so nothing but
the interpreter and ``import secretary_lab`` runs before that instant.
"""

import json
import sys
import time


def edge_eps(s: str, k: int, digits: int) -> str:
    """mix_eps at which the hard family's constrained optimum equals the
    lower end of the ``digits``-digit enclosure of 1/e, so that certifying
    it against 1/e needs an enclosure tighter than ``digits`` digits.

    oracle_optimum is affine in mix_eps, so two evaluations fix it.
    """
    from fractions import Fraction

    from secretary_lab import format_value, inv_e_enclosure, oracle_optimum, parse_value

    s_value = parse_value(s)
    at_quarter = oracle_optimum(Fraction(1, 4), s_value, k)
    slope = (oracle_optimum(Fraction(1, 2), s_value, k) - at_quarter) * 4
    target = inv_e_enclosure(digits).lower
    eps = Fraction(1, 4) + (target - at_quarter) / slope
    if oracle_optimum(eps, s_value, k) != target:
        raise RuntimeError("oracle_optimum is not affine in mix_eps")
    return format_value(eps)


def run(spec: dict, cli, pacer) -> dict:
    """Execute the operation with stdout and stderr captured, inside the
    ``pacer`` context."""
    import contextlib
    import io
    import traceback
    from pathlib import Path

    stdout, stderr = io.StringIO(), io.StringIO()
    with pacer:
        start = time.monotonic_ns()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if spec.get("edge"):
                    edge = spec["edge"]
                    Path(edge["out"]).write_text(
                        edge_eps(edge["s"], edge["k"], edge["digits"]), encoding="utf-8"
                    )
                    code = 0
                else:
                    code = cli.run_command(spec["argv"])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = 1
            stderr.write(traceback.format_exc())
        end = time.monotonic_ns()
    return {
        "start_ns": start,
        "end_ns": end,
        "exit": code,
        "stdout": stdout.getvalue().encode("utf-8"),
        "stderr": stderr.getvalue()[-2000:],
    }


def main() -> None:
    import secretary_lab.cli

    ready = time.monotonic_ns()
    import contextlib
    import hashlib
    from pathlib import Path

    import pace

    lead = pace.lead_samples()

    spec = json.loads(sys.argv[1])
    result = {
        "ready_ns": ready,
        "package": secretary_lab.__file__,
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "lead_pace": lead,
    }
    if not spec.get("probe"):
        tracer = None
        if spec.get("trace"):
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        pacer = pace.Pacer(lead) if spec.get("pace") else None
        result.update(run(spec, secretary_lab.cli, pacer or contextlib.nullcontext()))
        if pacer is not None:
            result["pace"] = pacer.samples
            result["pace_busy_ns"] = pacer.busy_ns
        out = result.pop("stdout")
        result["stdout_sha256"] = hashlib.sha256(out).hexdigest()
        if spec.get("keep_stdout"):
            result["stdout"] = out.decode("utf-8")
        files = {}
        output_bytes = len(out)
        for name in spec.get("files", []):
            path = Path(name)
            if path.is_file():
                data = path.read_bytes()
                files[name] = hashlib.sha256(data).hexdigest()
                output_bytes += len(data)
            else:
                files[name] = None
        result["files"] = files
        result["output_bytes"] = output_bytes
        if tracer is not None:
            result["trace"] = tracer.export()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
