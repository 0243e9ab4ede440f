"""Forked children that never return into their parent's code."""

import os
import signal


class Children:
    """A `with` block's forked children, every one reaped when the block ends.

    `fork(body)` runs `body()` at once in a child that leaves by `os._exit`,
    never by returning or flushing stdio: code 0 if `body` returned, else 1.
    Leaving the block SIGKILLs each child first if the block raised; `codes`
    then holds their exit codes in fork order.
    """

    def __init__(self):
        self.pids, self.codes = [], []

    def fork(self, body) -> None:
        pid = os.fork()
        if pid == 0:
            try:
                body()
                os._exit(0)
            finally:
                os._exit(1)
        self.pids.append(pid)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for pid in self.pids if exc_type is not None else ():
            os.kill(pid, signal.SIGKILL)
        self.codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in self.pids]
