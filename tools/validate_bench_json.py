#!/usr/bin/env python3
"""Validate a BENCH_<name>.json file written by a bench harness under
REPRO_BENCH_JSON.

Every file carries:

  schema_version  1
  bench           the harness name (the <name> of the file)
  host            provenance of the numbers: nproc (host core count, an
                  integer >= 0), build_type (the CMake build type) and
                  compiler (compiler id and version), non-empty strings
  records         a list of objects

--absent KEY fails when any record carries KEY (a retired column must not
come back).

Exit status: 0 on success, 1 on any violation (each is printed).

Usage: validate_bench_json.py BENCH_JSON [--absent KEY]...
"""

import argparse
import json
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("path")
    parser.add_argument("--absent", action="append", default=[])
    args = parser.parse_args()

    with open(args.path) as f:
        doc = json.load(f)
    errors = []

    def fail(message):
        errors.append(message)
        print("FAIL: %s" % message, file=sys.stderr)

    if doc.get("schema_version") != 1:
        fail("schema_version is %r, want 1" % doc.get("schema_version"))
    if not isinstance(doc.get("bench"), str):
        fail("bench missing or not a string")
    host = doc.get("host")
    if not isinstance(host, dict):
        fail("host missing or not an object")
        host = {}
    nproc = host.get("nproc")
    if not isinstance(nproc, int) or isinstance(nproc, bool) or nproc < 0:
        fail("host.nproc is %r, want a non-negative integer" % (nproc,))
    for key in ("build_type", "compiler"):
        if not isinstance(host.get(key), str) or not host[key]:
            fail("host.%s missing, empty or not a string" % key)
    records = doc.get("records")
    if not isinstance(records, list):
        fail("records missing or not a list")
        records = []
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            fail("records[%d] is not an object" % i)
            continue
        for key in args.absent:
            if key in record:
                fail("records[%d] carries retired key %r" % (i, key))

    if errors:
        return 1
    print("OK: %s (%d records, host %s)" % (args.path, len(records), host))
    return 0


if __name__ == "__main__":
    sys.exit(main())
