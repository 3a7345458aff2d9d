"""Code only tests drive, kept out of ``src/repro``.

Everything here was written as part of ``repro`` and moved out of the
package textually unchanged once nothing a user can run reached it
(``tests/test_reachability.py`` is the rule).  References and harnesses:

- :mod:`tests.reference.generator` — the rich packet generator, the
  oracle ``Scenario.records()`` is compared against;
- :mod:`tests.reference.headers` — the IPv4/UDP/TCP/ICMP header codecs,
  the Internet checksum and the header-object packet ``HeaderPacket``:
  what the wire stamper's bytes and ``CapturedPacket.from_bytes`` are
  checked against;
- :mod:`tests.reference.wire` — the wire-level NGINX worker pool, the
  server DES's ground truth;
- :mod:`tests.reference.transport` — the lossy-link handshake harness.

Parked, with the unit tests that are their only callers — delete each
with its tests, or move it back when a command needs it:

- :mod:`tests.reference.sketch_merge` — the sketch merges (no command
  merges sketches);
- :mod:`tests.reference.bursts` — the EWMA burst pre-screen;
- :mod:`tests.reference.simulation` — the discrete-event loop.

The rich *walker* is driven from ``tests/oracle.py`` but still lives in
``src/repro`` (``benchmarks/e2e`` times it).
"""
