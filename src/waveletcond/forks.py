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


def with_child(serve, work, name: str):
    """`work(to_child, from_child)` here, with `serve(inbox, outbox)` in one forked child.

    The four are the binary file ends of two pipes: `to_child` writes to
    `inbox`, `outbox` to `from_child`.  The child holds no other end, so
    it reads the end of input, or fails to write, once this process is gone.
    Returns what `work` returns.  Where `work` finds the child gone (a short
    read, raised as EOFError by `read_into`, or BrokenPipeError), raises
    ChildProcessError "<name>: its process ended without a result (exit code
    N)".  The child is reaped before this returns or raises, and SIGKILLed
    first if `work` raised anything else.
    """
    down, up = os.pipe(), os.pipe()  # (read end, write end): to the child, from the child
    with Children() as children, open(down[1], "wb") as to_child, open(up[0], "rb") as from_child:
        with open(down[0], "rb") as inbox, open(up[1], "wb") as outbox:
            def body():
                to_child.close()
                from_child.close()
                serve(inbox, outbox)

            children.fork(body)
        try:
            return work(to_child, from_child)
        except (BrokenPipeError, EOFError):
            pass
    raise ChildProcessError(f"{name}: its process ended without a result "
                            f"(exit code {children.codes[0]})")


def read_into(file, buffer) -> None:
    """Fill `buffer` from `file`; EOFError if the input ends first."""
    if file.readinto(buffer) < buffer.nbytes:
        raise EOFError
