#!/usr/bin/env python3
"""Check that the tables a document quotes from result CSVs match them.

    python3 scripts/docs-match.py [DOC ...]      # default: EXPERIMENTS.md

A table is checked when the line before it (blank lines aside) is a marker
naming its CSV, relative to the repository root:

    <!-- results/paper/fig5_1.csv -->
    | scheduler | Bin 1 | ... | ALL |
    |---|---|---|---|
    | LAS_MQ | 91.5 | ... | **775** |

A table column whose header is a CSV column is checked cell by cell, row i
of the table against data row i of the CSV, after `**` emphasis is
stripped. Every other column must be headed `Paper...`: the paper's
values are quoted, not measured, so a typo in a header cannot quietly
turn a measured column into an unchecked one. The table must have the
CSV's row count and at least two of its columns. Prints every mismatch
and exits non-zero if there is one; a document without a marker fails
too.
"""

import csv
import re
import sys
from pathlib import Path

MARKER = re.compile(r"^<!--\s*(\S+\.csv)\s*-->\s*$")


def cells(line):
    return [c.strip().replace("**", "") for c in line.strip().strip("|").split("|")]


def check_table(doc, lineno, csv_path, rows):
    """Returns a list of mismatch messages for one marked table."""
    where = f"{doc}:{lineno}"
    path = Path(csv_path)
    if not path.is_file():
        return [f"{where}: marker names {csv_path}, which does not exist"]
    with open(path, newline="") as f:
        header, *data = list(csv.reader(f))
    if len(rows) < 2 or not set(rows[1][0]) <= set("-: "):
        return [f"{where}: no markdown table follows the {csv_path} marker"]
    table_header, body = rows[0], rows[2:]
    errors = []
    checked = []
    for col, name in enumerate(table_header):
        if name in header:
            checked.append((col, header.index(name)))
        elif not name.startswith("Paper"):
            errors.append(f"{where}: column '{name}' is not in {csv_path} "
                          "and is not a Paper column")
    if len(checked) < 2:
        errors.append(f"{where}: fewer than two columns of {csv_path} are quoted")
    if len(body) != len(data):
        errors.append(f"{where}: {len(body)} rows, {csv_path} has {len(data)}")
    for i, (row, record) in enumerate(zip(body, data)):
        if len(row) != len(table_header):
            errors.append(f"{where}: row {i + 1} has {len(row)} cells, "
                          f"the header has {len(table_header)}")
            continue
        for col, field in checked:
            if row[col] != record[field]:
                errors.append(f"{where}: row {i + 1} '{row[0]}', column "
                              f"'{table_header[col]}': the doc says "
                              f"'{row[col]}', {csv_path} says '{record[field]}'")
    return errors


def check_doc(doc):
    lines = Path(doc).read_text(encoding="utf-8").splitlines()
    errors, tables, quoted = [], 0, 0
    for i, line in enumerate(lines):
        m = MARKER.match(line)
        if not m:
            continue
        j = i + 1
        while j < len(lines) and not lines[j].strip():
            j += 1
        rows = []
        while j < len(lines) and lines[j].lstrip().startswith("|"):
            rows.append(cells(lines[j]))
            j += 1
        errors += check_table(doc, i + 1, m.group(1), rows)
        tables += 1
        quoted += max(len(rows) - 2, 0)
    if tables == 0:
        errors.append(f"{doc}: no <!-- results/...csv --> markers")
    return errors, tables, quoted


def main(docs):
    failed = False
    for doc in docs:
        errors, tables, quoted = check_doc(doc)
        for e in errors:
            print(e)
        if errors:
            failed = True
        else:
            print(f"{doc}: {tables} tables, {quoted} rows match their CSVs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["EXPERIMENTS.md"]))
