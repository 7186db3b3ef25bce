#!/usr/bin/env python3
"""Guard against drift between the code and the docs where no rendering
test holds them together.

The wire commands, binary opcodes, HTTP routes and `hello` features
are one table, `protocol::WIRE`; `tests/wire_docs.rs` checks the docs'
tables against it word for word. This script cross-checks what lies
outside that table:

* the tracing surface: every span name the tracer records (the string
  literals at `root`/`adopt`/`begin`/`record` call sites, plus the
  request-span name each tier hands its `RequestCore`) is named in
  PROTOCOL.md's span vocabulary, the `FLAG_TRACE` bit and the trace
  extension's size match between frame.rs and PROTOCOL.md, and the
  `X-Bdi-Trace` header is handled in http.rs and documented in both
  docs;
* the candidate-pruning counters: every `serve.engine.candidates.*`
  and `serve.linkage.postings.*` counter the server registers has a
  backticked row in PROTOCOL.md's metric-family table, and the table
  names no pruning counter the code no longer registers;
* the CLI flags: every flag a `bdi` subcommand reads (the `COMMANDS`
  table in src/bin/bdi.rs, which is also what the parser enforces)
  appears in that subcommand's `USAGE` lines and in
  docs/OPERATIONS.md or a crate README, `USAGE` names no flag that no
  subcommand reads, and no `bdi <subcommand> ...` command line in the
  docs, the verify skill or the CI workflow passes a flag that
  subcommand would reject.

Run from the repo root: `python3 scripts/check_docs_drift.py`.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FRAME_RS = ROOT / "crates/bdi-serve/src/frame.rs"
HTTP_RS = ROOT / "crates/bdi-serve/src/http.rs"
PROTOCOL_MD = ROOT / "docs/PROTOCOL.md"
HTTP_API_MD = ROOT / "docs/HTTP_API.md"

errors = []


def check(cond, msg):
    if not cond:
        errors.append(msg)


protocol_md = PROTOCOL_MD.read_text()
http_api_md = HTTP_API_MD.read_text()

# 1. tracing: span names, frame flag, HTTP header
serve_sources = [
    p.read_text() for p in sorted((ROOT / "crates/bdi-serve/src").rglob("*.rs"))
]
span_names = set()
for src in serve_sources:
    # tracer call sites: root(name) / adopt(ctx, name) / begin(ctx, name)
    # / record(ctx, name, ...) — the name is the first string argument
    span_names.update(
        re.findall(
            r'\.(?:root|adopt|begin|record)\(\s*(?:[*\w.()&]+,\s*)?"([a-z][a-z_.]+)"',
            src,
            re.DOTALL,
        )
    )
    # the engine-stage names are fed to record() from a (name, ns) array
    span_names.update(re.findall(r'\(\s*"([a-z][a-z_.]+)",\s*timings\.', src))
    # each tier names its request span where it builds its request core
    span_names.update(
        re.findall(r'RequestCore::new\([^;]*?"([a-z]+\.request)"', src, re.DOTALL)
    )
check(
    len(span_names) >= 12,
    f"suspiciously few tracer span names found in bdi-serve: {sorted(span_names)}",
)
check(
    "## Distributed tracing" in protocol_md,
    "PROTOCOL.md lost its 'Distributed tracing' section",
)
for name in sorted(span_names):
    check(
        f"`{name}`" in protocol_md,
        f"span `{name}` is recorded by the tracer but absent from "
        "PROTOCOL.md's span vocabulary",
    )

# 2. candidate-pruning counters: every registered serve.engine.candidates.*
#    / serve.linkage.* counter is documented, and the doc invents none.
#    (Counters with a `<cmd>`-style wildcard row are exempt; these are
#    exact names, so each needs its own backticked mention.)
server_rs = (ROOT / "crates/bdi-serve/src/server.rs").read_text()
# serve.linkage.comparisons predates pruning and is covered by the
# stats-counter wildcard row, so only the pruning families are exact
code_counters = set(
    re.findall(
        r'registry\.counter\("((?:serve\.engine\.candidates|serve\.linkage\.postings)\.[\w.]+)"\)',
        server_rs,
    )
)
check(
    "serve.engine.candidates.pruned.root" in code_counters
    and "serve.engine.candidates.pruned.bound" in code_counters,
    f"server.rs lost the candidate-pruning counters: {sorted(code_counters)}",
)
for counter_name in sorted(code_counters):
    check(
        f"`{counter_name}`" in protocol_md,
        f"counter `{counter_name}` is registered by the server but absent "
        "from PROTOCOL.md's metric-family table",
    )
doc_pruning = set(
    re.findall(
        r"`((?:serve\.engine\.candidates|serve\.linkage\.postings)\.[\w.]+)`",
        protocol_md,
    )
)
for counter_name in sorted(doc_pruning):
    check(
        counter_name in code_counters,
        f"PROTOCOL.md documents counter `{counter_name}` but the server "
        "no longer registers it",
    )

frame_rs = FRAME_RS.read_text()
m = re.search(r"pub const FLAG_TRACE: u8 = (0x[0-9A-Fa-f]{2});", frame_rs)
check(m, "FLAG_TRACE const not found in frame.rs")
if m:
    check(
        f"`{m.group(1)}`" in protocol_md,
        f"frame flag FLAG_TRACE ({m.group(1)}) is not documented in PROTOCOL.md",
    )
m = re.search(r"pub const TRACE_EXT_LEN: usize = (\d+);", frame_rs)
check(m, "TRACE_EXT_LEN const not found in frame.rs")
if m:
    check(
        f"{m.group(1)}-byte" in protocol_md,
        f"the {m.group(1)}-byte trace extension is not documented in PROTOCOL.md",
    )

check(
    "X-Bdi-Trace" in HTTP_RS.read_text(),
    "http.rs lost the X-Bdi-Trace header handling",
)
for doc, path in [(http_api_md, HTTP_API_MD), (protocol_md, PROTOCOL_MD)]:
    check(
        "X-Bdi-Trace" in doc,
        f"the X-Bdi-Trace header is not documented in {path.name}",
    )

# 3. CLI flags: the per-subcommand lists the parser enforces vs USAGE,
#    the operator docs and every documented / CI command line
bdi_rs = (ROOT / "src/bin/bdi.rs").read_text()
m = re.search(r"const COMMANDS:[^=]*=\s*&\[(.*?)\n\];", bdi_rs, re.DOTALL)
check(m, "COMMANDS table not found in src/bin/bdi.rs")
cli_flags = {}  # subcommand -> set of flags it reads
for cmd, flags in re.findall(
    r'\(\s*"([\w-]+)",\s*cmd_\w+,\s*&\[(.*?)\],?\s*\)',
    m.group(1) if m else "",
    re.DOTALL,
):
    cli_flags[cmd] = set(re.findall(r'"([\w-]+)"', flags))
check(len(cli_flags) >= 8, f"suspiciously few bdi subcommands: {sorted(cli_flags)}")
all_flags = set().union(*cli_flags.values()) if cli_flags else set()

m = re.search(r'const USAGE: &str = "\\\n(.*?)";', bdi_rs, re.DOTALL)
check(m, "USAGE text not found in src/bin/bdi.rs")
usage = m.group(1) if m else ""
FLAG = r"--([a-z][\w-]*)"
for cmd, flags in sorted(cli_flags.items()):
    # the subcommand's synopsis: its `  bdi <cmd>` line plus the more
    # deeply indented continuation lines under it
    block = re.search(rf"^  bdi {cmd}\b.*(?:\n {{4,}}\S.*)*", usage, re.MULTILINE)
    check(block, f"USAGE has no synopsis line for `bdi {cmd}`")
    synopsis = set(re.findall(FLAG, block.group(0))) if block else set()
    for flag in sorted(flags - synopsis):
        errors.append(f"`bdi {cmd}` reads --{flag} but its USAGE synopsis omits it")
    for flag in sorted(synopsis - flags):
        errors.append(
            f"USAGE lists --{flag} for `bdi {cmd}` but the subcommand does not read it"
        )
for flag in sorted(set(re.findall(FLAG, usage)) - all_flags):
    errors.append(f"USAGE mentions --{flag} but no subcommand reads it")

flag_docs = [
    ROOT / "docs/OPERATIONS.md",
    ROOT / "crates/bdi-serve/README.md",
    ROOT / "README.md",
]
documented_flags = set()
for path in flag_docs:
    documented_flags.update(re.findall(FLAG, path.read_text()))
for flag in sorted(all_flags - documented_flags):
    errors.append(
        f"--{flag} is read by the CLI but documented in none of "
        + ", ".join(str(p.relative_to(ROOT)) for p in flag_docs)
    )

# every `bdi <subcommand> ...` command line, wherever it is written down
command_docs = sorted(
    [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "ROADMAP.md"]
    + list((ROOT / "docs").glob("*.md"))
    + list((ROOT / "crates").glob("*/README.md"))
    + list((ROOT / ".claude").rglob("*.md"))
    + list((ROOT / ".github/workflows").glob("*.yml"))
)
subcommands = "|".join(sorted(cli_flags))
for path in command_docs:
    # join shell continuation lines so a command is one logical line
    text = re.sub(r"\\\n\s*", " ", path.read_text())
    for cmd, rest in re.findall(
        rf"\bbdi(?: --)? +({subcommands})\b([^\n]*)", text
    ):
        # the command's own arguments end at a pipe, a chained command,
        # a comment, or the closing backtick of inline code
        args = re.split(r"[|;`#]|&&", rest, maxsplit=1)[0]
        for flag in re.findall(FLAG, args):
            check(
                flag in cli_flags[cmd],
                f"{path.relative_to(ROOT)} runs `bdi {cmd}` with --{flag}, "
                "which that subcommand does not read",
            )

if errors:
    for e in errors:
        print(f"::error::{e}")
    sys.exit(1)
print(
    f"docs in sync: {len(span_names)} trace span names, "
    f"{len(code_counters)} pruning counters, "
    f"{len(all_flags)} CLI flags across {len(cli_flags)} subcommands"
)
