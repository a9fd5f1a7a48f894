"""The benchmark's server process, and the handle run.py drives it with.

The server is the navigation service built from public API only, with
deployment settings and nothing else: a loopback port, a journal
directory, and the academic corpus (seed 7). Engine, compaction and
journal durability stay at the service defaults, so a change of a default
is measured. Run by :class:`ServerProcess`::

    python benchmarks/e2e/server.py --papers 4800 --journal-dir DIR \
        [--fleet 2] [--trace-dir DIR]

It prints ``PORT <n>`` once the async frontend listens on a free loopback
port, serves until SIGTERM, then shuts down gracefully and exits 0. With
``--trace-dir`` every process of the server (fleet workers included)
writes its spans there on exit.
"""

from __future__ import annotations

import argparse
import http.client
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

ROW_LIMIT = 50
CORPUS_SEED = 7


def build_corpus(papers: int):
    """The academic corpus every process of the benchmark shares."""
    from repro.datasets.academic import (
        AcademicConfig,
        default_categorical_attributes,
        default_label_overrides,
        generate_academic,
    )
    from repro.translate import translate_database

    db, _report = generate_academic(
        AcademicConfig(papers=papers, seed=CORPUS_SEED)
    )
    return translate_database(
        db,
        categorical_attributes=default_categorical_attributes(),
        label_overrides=default_label_overrides(),
    )


def fleet_corpus(papers: int, trace_dir: str | None = None):
    """Fleet worker factory: the corpus, plus the tracer when traced.

    Forked workers leave through ``os._exit``, which skips ``atexit``;
    multiprocessing still runs its own finalizers on the way out, so the
    spans are flushed by one of those.
    """
    if trace_dir is not None:
        import multiprocessing.util

        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        multiprocessing.util.Finalize(None, tracer.dump, args=(trace_dir,),
                                      exitpriority=10)
    return build_corpus(papers)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--papers", type=int, required=True)
    parser.add_argument("--journal-dir", required=True)
    parser.add_argument("--fleet", type=int, default=0,
                        help="worker processes (0: one process)")
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)

    from repro.service import AsyncNavigationServer, SessionManager
    from repro.service.fleet import FleetRouter

    if args.fleet:
        manager = FleetRouter({
            "factory": f"{os.path.abspath(__file__)}:fleet_corpus",
            "factory_kwargs": {"papers": args.papers,
                               "trace_dir": args.trace_dir},
            "journal_dir": args.journal_dir,
            "stats_path": os.path.join(args.journal_dir, "statistics.json"),
            "row_limit": ROW_LIMIT,
        }, workers=args.fleet)
    else:
        tgdb = build_corpus(args.papers)
        manager = SessionManager(tgdb.schema, tgdb.graph, row_limit=ROW_LIMIT,
                                 journal_dir=args.journal_dir)
    tracer = None
    if args.trace_dir:
        # After the fleet forked its workers: they install their own.
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    server = AsyncNavigationServer(manager, host="127.0.0.1", port=0).start()
    print(f"PORT {server.port}", flush=True)
    while not stop.wait(0.1):
        pass
    server.shutdown()
    manager.shutdown()
    if tracer is not None:
        tracer.dump(args.trace_dir)
    return 0


class ServerProcess:
    """One boot of the server, in its own process group.

    ``setup_s`` is the time from spawn to the first ``/healthz`` 200.
    :meth:`stop` sends SIGTERM and waits; :meth:`kill` takes down the
    whole group, fleet workers included, and is safe to call any time.
    """

    HEALTH_POLL_S = 0.01
    # A connection still open at SIGTERM, or closed too recently for the
    # server to have finished its handler, makes the async frontend log a
    # CancelledError traceback; the caller closes its connections and
    # stop() gives their handlers this long to finish.
    CLOSE_SETTLE_S = 0.2
    BOOT_TIMEOUT_S = 120.0
    STOP_TIMEOUT_S = 60.0

    def __init__(self, src: Path, papers: int, journal_dir: Path,
                 fleet: int = 0, trace_dir: Path | None = None,
                 cpus: set[int] | None = None) -> None:
        command = [sys.executable, os.path.abspath(__file__),
                   "--papers", str(papers), "--journal-dir", str(journal_dir),
                   "--fleet", str(fleet)]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        env = dict(os.environ, PYTHONPATH=str(src))
        started = time.monotonic()
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        env=env, start_new_session=True)
        try:
            if cpus is not None:
                # Fleet workers fork later and inherit the placement.
                os.sched_setaffinity(self.process.pid, cpus)
            ready, _, _ = select.select([self.process.stdout], [], [],
                                        self.BOOT_TIMEOUT_S)
            line = (self.process.stdout.readline().decode("ascii").split()
                    if ready else [])
            if len(line) != 2 or line[0] != "PORT":
                raise RuntimeError(
                    f"server did not boot (exit code {self.process.poll()})"
                )
            self.port = int(line[1])
            deadline = started + self.BOOT_TIMEOUT_S
            while not self._healthy():
                if time.monotonic() > deadline:
                    raise RuntimeError("server never answered /healthz")
                time.sleep(self.HEALTH_POLL_S)
            self.setup_s = time.monotonic() - started
        except BaseException:
            self.kill()
            raise

    def _healthy(self) -> bool:
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=5)
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
            return response.status == 200
        except OSError:
            return False
        finally:
            connection.close()

    def tree_rss_peak_mb(self) -> float:
        """Sum of VmHWM over the server and every descendant process."""
        parents: dict[int, int] = {}
        for entry in os.scandir("/proc"):
            if entry.name.isdigit():
                try:
                    with open(f"/proc/{entry.name}/stat", "rb") as stat:
                        fields = stat.read().rsplit(b")", 1)[1].split()
                except OSError:
                    continue  # exited while scanning
                parents[int(entry.name)] = int(fields[1])
        tree, frontier = [], [self.process.pid]
        while frontier:
            pid = frontier.pop()
            tree.append(pid)
            frontier.extend(child for child, parent in parents.items()
                            if parent == pid)
        kib = 0
        for pid in tree:
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as status:
                    kib += sum(int(line.split()[1]) for line in status
                               if line.startswith("VmHWM:"))
            except OSError:
                continue  # exited while scanning
        return kib / 1024.0

    def stop(self) -> int:
        """Graceful SIGTERM; returns the exit code (killed on timeout)."""
        time.sleep(self.CLOSE_SETTLE_S)
        self.process.send_signal(signal.SIGTERM)
        try:
            return self.process.wait(timeout=self.STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return -signal.SIGKILL
        finally:
            self.process.stdout.close()

    def kill(self) -> None:
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self.process.stdout.close()


if __name__ == "__main__":
    sys.exit(main())
