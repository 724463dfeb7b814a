"""Runs gptkit CLI calls for the ``cli`` workload, one at a time.

A child's peak RSS (``ru_maxrss``) counts the memory of the process it was
forked from, so the calls are forked from this small process rather than
from the benchmark.  Requests and replies are one JSON object per line on
stdin and stdout: ``{"argv": [...], "stdin": str or null}`` in,
``{"code", "out", "err", "maxrss_kb"}`` out.  The process ends at the end
of its input.
"""

import json
import os
import subprocess
import sys
import tempfile


def run(argv, stdin):
    with tempfile.TemporaryFile(dir=os.getcwd()) as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "gptkit.cli", *argv],
            stdin=subprocess.DEVNULL if stdin is None else subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=err)
        if stdin is not None:
            proc.stdin.write(stdin.encode())
            proc.stdin.close()
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return {"code": proc.returncode, "out": out.decode(),
                "err": err.read().decode(), "maxrss_kb": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["stdin"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
