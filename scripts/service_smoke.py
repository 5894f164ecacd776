#!/usr/bin/env python3
"""End-to-end smoke test for the sealpaad batch analysis service.

Drives a real daemon over TCP — in CI, one built with AddressSanitizer —
through every behavior the wire protocol promises (stdlib only, no pip):

1. readiness: the daemon prints its bound port on stdout;
2. pipelining: many requests down one connection each come back exactly
   once, matched by id (responses to one connection may complete out of
   order across dispatch shards; within one (width, p) profile order
   stays FIFO, which is asserted too);
3. robustness: malformed JSON, oversized frames, unknown methods/cells,
   width-limit violations and an expired deadline each produce the
   documented structured error, and the connection keeps serving;
4. concurrency: parallel connections each get exactly their own answers;
5. CLI parity: evaluation payloads are byte-for-byte identical (after
   canonical JSON re-serialization) to what `sealpaa_cli analyze`
   writes into its run report for the same configuration;
6. analytic-pmf: the simulation-free method returns a distribution
   whose MED/MSE fields equal the CLI's run-report values and a PMF
   whose mass sums to 1; a repeated chain is answered identically from
   the evaluator's PMF cache (one hit each, no stage recomputed);
7. block-analytic: block-adder requests (a "blocks" spec instead of a
   cell chain) return evaluations byte-identical to the CLI's, and a
   spec on any other method is rejected;
8. out-of-order completion (multi-worker runs): a fast request sent
   after a slow one on the same connection overtakes it when the two
   land on different dispatch shards — responses matched by id, never
   by arrival order;
9. graceful drain: SIGTERM answers everything already received, then
   the process exits 0.

Usage:
    service_smoke.py --daemon build/tools/sealpaad \\
                     --cli build/tools/sealpaa_cli [--requests 1000] \\
                     [--dispatch-threads 4]
"""

import argparse
import json
import re
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

SCHEMA = "sealpaa.service"
SCHEMA_VERSION = 1
IO_TIMEOUT_S = 60.0

FAILURES = []


def check(condition, message):
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {message}")
    if not condition:
        FAILURES.append(message)
    return condition


class Connection:
    """Newline-delimited JSON over one TCP connection."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=IO_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def send_frames(self, payload):
        """payload: str of raw bytes to send verbatim."""
        self.sock.sendall(payload.encode("utf-8"))

    def send_request(self, request):
        self.send_frames(json.dumps(request) + "\n")

    def read_line(self):
        """One response line, or None on EOF."""
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                return None
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line.decode("utf-8")

    def read_response(self):
        line = self.read_line()
        return None if line is None else json.loads(line)

    def close(self):
        self.sock.close()


def expect_envelope(response, request_id):
    ok = (response is not None
          and response.get("schema") == SCHEMA
          and response.get("schema_version") == SCHEMA_VERSION
          and response.get("id") == request_id)
    if not ok:
        FAILURES.append(f"bad envelope for id {request_id!r}: {response}")
    return ok


def expect_error(response, request_id, code):
    expect_envelope(response, request_id)
    actual = (response or {}).get("error", {}).get("code")
    check(response is not None and response.get("ok") is False
          and actual == code,
          f"id {request_id!r} fails with error.code={code!r} (got {actual!r})")


def evaluate_request(request_id, cell, width, p=0.5, method="recursive",
                     **params):
    request = {"id": request_id, "method": method, "width": width,
               "chain": cell}
    merged = dict(params)
    if p != 0.5:
        merged["p"] = p
    if merged:
        request["params"] = merged
    return request


def phase_pipelining(port, count):
    print(f"-- pipelining: {count} requests, one connection, "
          "responses matched by id")
    conn = Connection(port)
    cells = ["LPAA1", "LPAA3", "LPAA6", "LPAA7"]
    requests = []
    for i in range(count):
        if i % 10 == 9:
            requests.append({"id": i, "method": "ping"})
        else:
            requests.append(evaluate_request(i, cells[i % len(cells)],
                                             width=8 + 8 * (i % 2)))
    conn.send_frames("".join(json.dumps(r) + "\n" for r in requests))

    # The wire contract promises exactly one response per request, NOT
    # send order: pings are answered inline ahead of queued evaluations,
    # and evaluations complete out of order across dispatch shards.
    # Only same-profile requests — here, same width — stay FIFO.
    seen = {}
    all_ok = True
    envelopes_ok = True
    by_width = {8: [], 16: []}
    for _ in range(count):
        response = conn.read_response()
        if response is None or response.get("schema") != SCHEMA \
                or response.get("schema_version") != SCHEMA_VERSION:
            envelopes_ok = False
            break
        i = response.get("id")
        seen[i] = seen.get(i, 0) + 1
        if response.get("ok") is not True:
            all_ok = False
        elif i % 10 == 9:
            all_ok = all_ok and response.get("pong") is True
        else:
            all_ok = all_ok and "evaluation" in response
            by_width[8 + 8 * (i % 2)].append(i)
    check(envelopes_ok, "every response carries a well-formed envelope")
    check(seen == {i: 1 for i in range(count)},
          "every id answered exactly once")
    check(all_ok, "every response ok with the expected payload")
    check(all(ids == sorted(ids) for ids in by_width.values()),
          "same-profile responses stay FIFO per width")
    conn.close()


def phase_robustness(port, max_frame_bytes=64 * 1024):
    print("-- robustness: structured errors, connection survives")
    conn = Connection(port)

    conn.send_frames("this is not json\n")
    response = conn.read_response()
    check(response is not None and response.get("ok") is False
          and response.get("error", {}).get("code") == "invalid-json",
          "garbage line answered with invalid-json")

    oversized = '{"id": "big", "junk": "' + "x" * (max_frame_bytes + 1024)
    conn.send_frames(oversized + '"}\n')
    response = conn.read_response()
    check(response is not None and response.get("ok") is False
          and response.get("error", {}).get("code") == "frame-too-large",
          "oversized frame answered with frame-too-large")

    conn.send_request({"id": "m", "method": "nope", "width": 4,
                       "chain": "LPAA1"})
    expect_error(conn.read_response(), "m", "unknown-method")

    conn.send_request(evaluate_request("c", "LPAA9", width=4))
    expect_error(conn.read_response(), "c", "unknown-cell")

    conn.send_request(evaluate_request("w", "LPAA1", width=9999))
    expect_error(conn.read_response(), "w", "width-limit")

    conn.send_request(evaluate_request("b", "LPAA1", width=4, typo=1))
    expect_error(conn.read_response(), "b", "bad-request")

    conn.send_request(evaluate_request("t", "LPAA1", width=8, timeout_ms=0))
    expect_error(conn.read_response(), "t", "timeout")

    conn.send_request({"id": "alive", "method": "ping"})
    response = conn.read_response()
    check(response is not None and response.get("pong") is True,
          "connection still serves after every error")
    conn.close()


def phase_concurrency(port, connections, per_connection):
    print(f"-- concurrency: {connections} connections x "
          f"{per_connection} requests")
    results = [None] * connections

    def worker(index):
        try:
            conn = Connection(port)
            ids = [f"conn{index}-{i}" for i in range(per_connection)]
            conn.send_frames("".join(
                json.dumps(evaluate_request(request_id, "LPAA6", width=8))
                + "\n" for request_id in ids))
            echoed = []
            for _ in ids:
                response = conn.read_response()
                if response is None or response.get("ok") is not True:
                    results[index] = "bad response"
                    return
                echoed.append(response.get("id"))
            conn.close()
            results[index] = "ok" if echoed == ids else "wrong ids"
        except (OSError, ValueError) as error:
            results[index] = f"exception: {error}"

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(IO_TIMEOUT_S)
    check(all(r == "ok" for r in results),
          f"each connection got exactly its own answers ({results})")


def phase_cli_parity(port, cli):
    print("-- CLI parity: service evaluation == sealpaa_cli run report")
    combos = [
        ("LPAA6", 8, 0.5, "recursive", {}),
        ("LPAA3", 16, 0.5, "recursive", {}),
        ("LPAA1", 8, 0.3, "recursive", {}),
        ("LPAA6", 8, 0.5, "inclusion-exclusion", {}),
        ("LPAA2", 6, 0.3, "weighted-exhaustive", {}),
        ("LPAA5", 8, 0.3, "monte-carlo", {"samples": 50000}),
        ("LPAA4", 8, 0.5, "analytic-pmf", {}),
    ]
    conn = Connection(port)
    for index, (cell, bits, p, method, params) in enumerate(combos):
        with tempfile.NamedTemporaryFile(suffix=".json") as report_file:
            command = [cli, "analyze", f"--cell={cell}", f"--bits={bits}",
                       f"--p={p}", f"--method={method}",
                       f"--json-report={report_file.name}"]
            command += [f"--{key}={value}" for key, value in params.items()]
            subprocess.run(command, check=True, capture_output=True)
            with open(report_file.name, "r", encoding="utf-8") as handle:
                report = json.load(handle)
        expected = report["sections"]["analyze"]["evaluation"]

        request_id = f"parity{index}"
        conn.send_request(evaluate_request(request_id, cell, width=bits,
                                           p=p, method=method, **params))
        response = conn.read_response()
        expect_envelope(response, request_id)
        actual = (response or {}).get("evaluation")
        check(json.dumps(actual, sort_keys=True)
              == json.dumps(expected, sort_keys=True),
              f"{method} {cell} width {bits} p {p} matches the CLI")
    conn.close()


def pmf_cache_stats(conn, request_id):
    """The daemon's evaluators.pmf_cache counters."""
    conn.send_request({"id": request_id, "method": "stats"})
    response = conn.read_response()
    expect_envelope(response, request_id)
    return ((response or {}).get("stats", {}).get("evaluators", {})
            .get("pmf_cache", {}))


def phase_analytic_pmf(port, cli):
    print("-- analytic-pmf: simulation-free MED/MSE match the CLI")
    combos = [("LPAA1", 8, 0.3), ("LPAA6", 12, 0.5), ("LPAA3", 16, 0.42)]
    conn = Connection(port)
    first = []
    for index, (cell, bits, p) in enumerate(combos):
        with tempfile.NamedTemporaryFile(suffix=".json") as report_file:
            subprocess.run(
                [cli, "analyze", f"--cell={cell}", f"--bits={bits}",
                 f"--p={p}", "--method=analytic-pmf",
                 f"--json-report={report_file.name}"],
                check=True, capture_output=True)
            with open(report_file.name, "r", encoding="utf-8") as handle:
                report = json.load(handle)
        expected = report["sections"]["analyze"]["evaluation"]["distribution"]

        request_id = f"pmf{index}"
        conn.send_request(evaluate_request(request_id, cell, width=bits,
                                           p=p, method="analytic-pmf"))
        response = conn.read_response()
        expect_envelope(response, request_id)
        evaluation = (response or {}).get("evaluation", {})
        first.append(evaluation)
        actual = evaluation.get("distribution")
        check(isinstance(actual, dict),
              f"analytic-pmf {cell} width {bits} carries a distribution")
        if not isinstance(actual, dict):
            continue
        for field in ("mean_error_distance", "mean_squared_error"):
            check(actual.get(field) == expected.get(field),
                  f"analytic-pmf {cell} width {bits} {field} == CLI "
                  f"({actual.get(field)!r})")
        pmf = evaluation.get("pmf", {})
        mass = pmf.get("total_mass")
        check(isinstance(mass, (int, float)) and abs(mass - 1.0) <= 1e-9,
              f"analytic-pmf {cell} width {bits} pmf mass ~ 1 ({mass!r})")

    # Each repeat is one PMF-cache hit on its profile's evaluator: the
    # same evaluation, and no stage recomputed.  A worker publishes its
    # counters before it answers, so each read covers what came before.
    before = pmf_cache_stats(conn, "pmf-stats-before")
    for index, (cell, bits, p) in enumerate(combos):
        request_id = f"pmf-repeat{index}"
        conn.send_request(evaluate_request(request_id, cell, width=bits,
                                           p=p, method="analytic-pmf"))
        response = conn.read_response()
        expect_envelope(response, request_id)
        check((response or {}).get("evaluation") == first[index],
              f"repeated analytic-pmf {cell} width {bits} returns the same "
              "evaluation")
    after = pmf_cache_stats(conn, "pmf-stats-after")
    counters = ("hits", "misses", "stages_computed", "chains_evaluated")
    moved = {key: after.get(key, 0) - before.get(key, 0) for key in counters}
    check(moved["hits"] == len(combos),
          f"pmf_cache.hits rose by {len(combos)} (moved {moved['hits']})")
    check(moved["misses"] == 0 and moved["stages_computed"] == 0,
          "pmf_cache.misses and stages_computed did not move "
          f"({moved['misses']}, {moved['stages_computed']})")
    check(after.get("hits", 0) + after.get("misses", 0)
          == after.get("chains_evaluated"),
          "pmf_cache.hits + misses == chains_evaluated "
          f"({after.get('hits')} + {after.get('misses')} vs "
          f"{after.get('chains_evaluated')})")
    conn.close()


def phase_block_analytic(port, cli):
    print("-- block-analytic: block specs served byte-identical to the CLI")
    combos = [
        (16, "gear:4:4", 0.5),
        (16, "aca:4", 0.42),
        (12, "etaii:3", 0.5),
        (16, "4:0,2:2,4:3,2:1,4:4", 0.3),
    ]
    conn = Connection(port)
    for index, (bits, blocks, p) in enumerate(combos):
        with tempfile.NamedTemporaryFile(suffix=".json") as report_file:
            subprocess.run(
                [cli, "analyze", f"--bits={bits}", f"--blocks={blocks}",
                 f"--p={p}", "--method=block-analytic",
                 f"--json-report={report_file.name}"],
                check=True, capture_output=True)
            with open(report_file.name, "r", encoding="utf-8") as handle:
                report = json.load(handle)
        expected = report["sections"]["analyze"]["evaluation"]

        request_id = f"block{index}"
        request = {"id": request_id, "method": "block-analytic",
                   "width": bits, "blocks": blocks}
        if p != 0.5:
            request["params"] = {"p": p}
        conn.send_request(request)
        response = conn.read_response()
        expect_envelope(response, request_id)
        actual = (response or {}).get("evaluation")
        check(json.dumps(actual, sort_keys=True)
              == json.dumps(expected, sort_keys=True),
              f"block-analytic {blocks} width {bits} p {p} matches the CLI")

    # A spec that does not tile the width, a missing spec, and a spec on
    # a non-block method are each structured rejections.
    conn.send_request({"id": "bw", "method": "block-analytic", "width": 16,
                       "blocks": "gear:24:4"})
    expect_error(conn.read_response(), "bw", "bad-request")
    conn.send_request({"id": "bm", "method": "block-analytic", "width": 16})
    expect_error(conn.read_response(), "bm", "bad-request")
    conn.send_request({"id": "bx", "method": "recursive", "width": 8,
                       "chain": "LPAA1", "blocks": "gear:2:2"})
    expect_error(conn.read_response(), "bx", "bad-request")
    conn.close()


def phase_out_of_order(port, dispatch_threads):
    if dispatch_threads < 2:
        print("-- out-of-order completion: skipped "
              f"(needs >= 2 dispatch workers, have {dispatch_threads})")
        return
    print("-- out-of-order completion: fast request overtakes a slow one")
    # Widths 16 and 24 land on different dispatch shards at 4 workers
    # (Dispatcher::shard_of — asserted by tests/test_service.cpp), so a
    # cheap recursive evaluation sent AFTER a multi-million-sample Monte
    # Carlo run on the same connection must complete first.  Responses
    # interleave across shards and are matched by id, never by arrival.
    conn = Connection(port)
    conn.send_frames(
        json.dumps(evaluate_request("slow", "LPAA3", width=16,
                                    method="monte-carlo",
                                    samples=2097152)) + "\n"
        + json.dumps(evaluate_request("fast", "LPAA6", width=24)) + "\n")
    first = conn.read_response()
    second = conn.read_response()
    check(first is not None and first.get("id") == "fast"
          and first.get("ok") is True,
          "fast recursive response arrived first")
    check(second is not None and second.get("id") == "slow"
          and second.get("ok") is True
          and "evaluation" in second,
          "slow monte-carlo response completed afterwards, intact")
    conn.close()


def phase_sigterm_drain(daemon, port):
    print("-- SIGTERM: drain answers in-flight work, exit 0")
    conn = Connection(port)
    count = 50
    conn.send_frames("".join(
        json.dumps(evaluate_request(i, "LPAA3", width=16)) + "\n"
        for i in range(count)))
    # A drain stops reading, so only wave goodbye once the server has
    # demonstrably received the burst (it answers in arrival order).
    first = conn.read_response()
    check(first is not None and first.get("ok") is True
          and first.get("id") == 0, "burst reached the server before SIGTERM")
    daemon.send_signal(signal.SIGTERM)
    answered = 1
    while True:
        response = conn.read_response()
        if response is None:
            break
        if response.get("ok") is True and response.get("id") == answered:
            answered += 1
    conn.close()
    check(answered == count,
          f"all {count} in-flight requests answered before close "
          f"({answered} seen)")
    returncode = daemon.wait(timeout=IO_TIMEOUT_S)
    check(returncode == 0, f"daemon exited {returncode} after drain")
    stderr = daemon.stderr.read()
    check("drained" in stderr, "daemon logged its drain summary")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--daemon", required=True,
                        help="path to the sealpaad binary")
    parser.add_argument("--cli", required=True,
                        help="path to the sealpaa_cli binary")
    parser.add_argument("--requests", type=int, default=1000,
                        help="pipelined request count (default: %(default)s)")
    parser.add_argument("--connections", type=int, default=4,
                        help="concurrent connections (default: %(default)s)")
    parser.add_argument("--dispatch-threads", type=int, default=4,
                        help="daemon dispatch workers (default: %(default)s)")
    args = parser.parse_args(argv)

    daemon = subprocess.Popen(
        [args.daemon, "--port=0",
         f"--dispatch-threads={args.dispatch_threads}"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        ready = daemon.stdout.readline()
        match = re.search(r"listening on 127\.0\.0\.1:(\d+)", ready)
        if not check(match is not None,
                     f"readiness line announces the port ({ready.strip()!r})"):
            return 1
        port = int(match.group(1))

        phase_pipelining(port, args.requests)
        phase_robustness(port)
        phase_concurrency(port, args.connections,
                          max(10, args.requests // 10))
        phase_cli_parity(port, args.cli)
        phase_analytic_pmf(port, args.cli)
        phase_block_analytic(port, args.cli)
        phase_out_of_order(port, args.dispatch_threads)
        phase_sigterm_drain(daemon, port)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()

    if FAILURES:
        print(f"\nservice smoke FAILED ({len(FAILURES)} checks):")
        for failure in FAILURES:
            print(f"  - {failure}")
        return 1
    print("\nservice smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
