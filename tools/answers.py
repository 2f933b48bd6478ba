"""One digest of every benchmark answer, to check a change for byte-identity.

Usage (from the repository root)::

    python3 tools/answers.py [--src PATH] [--seeds 1,2,3] [--rounds 4]

It generates the requests of every workload in ``bench/workloads.py``, for
each seed and rounds 0 to ``--rounds`` - 1, sends each one in-process
through ``chebconvex.cli.main`` of the package under ``--src`` (default:
this checkout's ``src``), and prints the number of requests and one
SHA-256 over (template, exit code, stdout, stderr) of each, in order. Two
trees give the same digest line exactly when every answer is the same
byte for byte; to check a change against its parent, point ``--src`` at
the ``src`` of a ``git archive`` of the parent. A line for each template
comes first: its number of requests and the SHA-256 of its own answers,
then its name, so ``diff`` of two trees' outputs names the templates
whose answers differ.

A request that escapes ``cli.main`` with an exception is hashed as the
exception's type and message. When any did, a last line gives how many,
and the exit status is 1.

``bench/`` is only read: no bytecode is written, and table files go to a
temporary directory that is removed afterwards. Its path is replaced by a
fixed placeholder before hashing, so that answers naming a table file hash
the same in every run. No oracle check is made; ``bench/run.py`` does that.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def digest(src: str, seeds: list[int], rounds: int
           ) -> tuple[int, str, dict[str, tuple[int, str]], int]:
    """The number of requests and the SHA-256 of their answers, the same
    two for each template, by template name, and the number of requests
    that raised."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.abspath(src), os.path.join(ROOT, "bench")]
    cli = importlib.import_module("chebconvex.cli")
    workloads = importlib.import_module("workloads")
    sha, count, raised = hashlib.sha256(), 0, 0
    templates: dict[str, list] = {}  # template -> [requests, SHA-256]
    with tempfile.TemporaryDirectory(prefix="answers-") as workdir:
        for name in workloads.WORKLOADS:
            for seed in seeds:
                workload = workloads.Workload(name, seed, workdir)
                for r in range(rounds):
                    for request in workload.round(r):
                        out, err = io.StringIO(), io.StringIO()
                        with contextlib.redirect_stderr(err):
                            try:
                                code = str(cli.main(list(request.argv), out))
                            except Exception as exc:  # an escaped error is an answer too
                                code = f"raised {type(exc).__name__}: {exc}"
                                raised += 1
                        own = templates.setdefault(request.template, [0, hashlib.sha256()])
                        for part in (request.template, code, out.getvalue(), err.getvalue()):
                            data = part.replace(workdir, "<workdir>").encode()
                            sha.update(b"%d:" % len(data) + data)
                            own[1].update(b"%d:" % len(data) + data)
                        own[0] += 1
                        count += 1
    return (count, sha.hexdigest(),
            {t: (c, h.hexdigest()) for t, (c, h) in templates.items()}, raised)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the chebconvex package")
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated benchmark seeds")
    parser.add_argument("--rounds", type=int, default=4, help="rounds per workload and seed")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(args.src, "chebconvex")):
        parser.error(f"no chebconvex package under {args.src}")
    count, hexdigest, templates, raised = digest(
        args.src, [int(s) for s in args.seeds.split(",")], args.rounds)
    for template, (n, hexdigest_of) in templates.items():
        print(f"{n} answers sha256 {hexdigest_of}  {template}")
    print(f"{count} answers sha256 {hexdigest}")
    if raised:
        print(f"{raised} of {count} requests raised an exception")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
